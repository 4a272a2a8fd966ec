package wire

import (
	"math"
	"testing"

	"sbr/internal/core"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
)

// maxAbsFrame encodes one fixed 32×24 batch with the MaxAbs metric: a
// bounded frame of the shape a station archives, 723 bytes.
func maxAbsFrame(t testing.TB) ([]byte, *core.Transmission) {
	t.Helper()
	comp, err := core.NewCompressor(core.Config{TotalBand: 150, MBase: 64, Metric: metrics.MaxAbs})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]timeseries.Series, 32)
	for i := range rows {
		rows[i] = make(timeseries.Series, 24)
		for j := range rows[i] {
			rows[i][j] = 10*math.Sin(float64(j+3*i)/4) + float64(i)
		}
	}
	tr, err := comp.Encode(rows)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	return frame, tr
}

// TestDecodeBytesAllocs pins DecodeBytes to a per-frame allocation count:
// the body reader, the Transmission and its interval slice (this frame
// inserts no base intervals). The header, length and checksum are parsed
// in place and the body is not copied. Reading a float must not allocate,
// so the count may not grow with the values a frame carries (this one
// carries over 70).
func TestDecodeBytesAllocs(t *testing.T) {
	frame, tr := maxAbsFrame(t)
	floats := 1 + len(tr.Intervals)*2
	for _, iv := range tr.BaseIntervals {
		floats += len(iv)
	}
	const maxAllocs = 3
	if floats <= maxAllocs*4 {
		t.Fatalf("fixture frame carries only %d floats; a per-float allocation would go unnoticed", floats)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBytes(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("DecodeBytes of a %d-byte frame with %d floats: %.0f allocs, want <= %d",
			len(frame), floats, allocs, maxAllocs)
	}
}
