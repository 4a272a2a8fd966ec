package wire

import (
	"bytes"
	"testing"

	"sbr/internal/base"
	"sbr/internal/core"
	"sbr/internal/interval"
	"sbr/internal/timeseries"
)

// FuzzDecode checks that arbitrary byte streams never crash the decoder and
// that every frame the decoder accepts re-encodes to a frame the decoder
// accepts again with identical content. Run with `go test -fuzz=FuzzDecode
// ./internal/wire` for an open-ended session; the seed corpus runs in every
// regular `go test`.
func FuzzDecode(f *testing.F) {
	// Seed with valid frames of several shapes plus structured garbage.
	seeds := []*core.Transmission{
		{Seq: 0, N: 1, M: 4, W: 2},
		{
			Seq: 7, N: 2, M: 16, W: 3,
			BaseIntervals: []timeseries.Series{{1, 2, 3}},
			Placements:    []base.Placement{{Slot: 0}},
			Intervals: []interval.Interval{
				{Start: 0, Shift: -1, A: 1.5, B: -2},
				{Start: 16, Shift: 2, A: 0, B: 9},
			},
		},
		{
			Seq: 3, N: 1, M: 8, W: 2,
			Intervals: []interval.Interval{{Start: 0, Shift: 1, A: 1, B: 2, C: -0.5}},
		},
	}
	for _, t := range seeds {
		frame, err := Encode(t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte("SBRT"))
	f.Add([]byte{'S', 'B', 'R', 'T', 1, 0xFF, 0xFF, 0xFF})
	// A traced frame, one with bytes after its checksum, and a truncated
	// one: the shapes where the in-place parse and ReadFrame's stream
	// framing could part ways.
	frame, err := EncodeTraced(seeds[1], TraceContext{ID: 0xfeed, Sampled: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(append(append([]byte(nil), frame...), 1, 2, 3))
	f.Add(frame[:len(frame)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		// Decoding in place and from a stream (ReadFrame, then the same
		// body decode) accept the same inputs and agree on the result.
		trR, errR := Decode(bytes.NewReader(data))
		if (err == nil) != (errR == nil) {
			t.Fatalf("DecodeBytes error %v, Decode error %v", err, errR)
		}
		if err != nil {
			return // rejection is always fine; crashing is not
		}
		if !sameTransmission(tr, trR) {
			t.Fatalf("DecodeBytes gave %+v, Decode gave %+v", tr, trR)
		}
		// Accepted frames must round-trip losslessly.
		frame2, err := Encode(tr)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		tr2, err := DecodeBytes(frame2)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if tr2.Seq != tr.Seq || tr2.N != tr.N || tr2.M != tr.M || tr2.W != tr.W ||
			len(tr2.Intervals) != len(tr.Intervals) ||
			len(tr2.BaseIntervals) != len(tr.BaseIntervals) {
			t.Fatal("round trip changed the transmission")
		}
		for i := range tr.Intervals {
			a, b := tr.Intervals[i], tr2.Intervals[i]
			if a.Start != b.Start || a.Shift != b.Shift ||
				!sameFloat(a.A, b.A) || !sameFloat(a.B, b.B) || !sameFloat(a.C, b.C) {
				t.Fatalf("interval %d changed: %+v vs %+v", i, a, b)
			}
		}
	})
}

// sameFloat treats NaN as equal to NaN: fuzzed frames can carry NaN
// payloads, which never compare equal via ==.
func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// sameTransmission compares every decoded field, NaN payloads included.
func sameTransmission(a, b *core.Transmission) bool {
	if a.Seq != b.Seq || a.N != b.N || a.M != b.M || a.W != b.W || a.Cost != b.Cost ||
		!sameFloat(a.ErrBound, b.ErrBound) ||
		len(a.BaseIntervals) != len(b.BaseIntervals) || len(a.Placements) != len(b.Placements) ||
		len(a.Intervals) != len(b.Intervals) {
		return false
	}
	for i, iv := range a.BaseIntervals {
		if a.Placements[i] != b.Placements[i] || len(iv) != len(b.BaseIntervals[i]) {
			return false
		}
		for j, v := range iv {
			if !sameFloat(v, b.BaseIntervals[i][j]) {
				return false
			}
		}
	}
	for i, x := range a.Intervals {
		y := b.Intervals[i]
		if x.Start != y.Start || x.Shift != y.Shift ||
			!sameFloat(x.A, y.A) || !sameFloat(x.B, y.B) || !sameFloat(x.C, y.C) {
			return false
		}
	}
	return true
}
