package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/metrics"
	"sbr/internal/segstore"
	"sbr/internal/station"
)

// Shape of the archived station: coldSegs sealed segments of segChunks
// chunks each live only in the archive, memChunks more stay in memory.
const (
	archM     = 64
	segChunks = 4
	coldSegs  = 8
	memChunks = 6
)

// newArchived builds a MaxAbs station (so every chunk ships a non-zero
// bound) whose first coldSegs*chunksPerSeg chunks have been evicted from
// memory into a segment store under a fresh temporary directory, behind
// the store's default 4-segment cache. Nothing has been read yet, so the
// segment cache starts cold.
func newArchived(t testing.TB, chunksPerSeg int) (*station.Station, *segstore.Store) {
	t.Helper()
	cfg := core.Config{TotalBand: 200, MBase: 64, Metric: metrics.MaxAbs}
	st, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := segstore.Open(segstore.Options{
		Dir: t.TempDir(), Config: cfg, SegmentChunks: chunksPerSeg, NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	st.SetArchive(store, memChunks)
	frames := coldSegs*chunksPerSeg + memChunks
	ds := datagen.StocksSized(7, archM, frames)
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		tr, err := comp.Encode(ds.File(f))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Receive("arch", tr); err != nil {
			t.Fatal(err)
		}
	}
	return st, store
}

// serve runs one request and returns its status and raw body.
func serve(api *API, url string) (int, string) {
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.String()
}

// encoded is v as the handlers encode it.
func encoded(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

type runJSON struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	Peak  float64 `json:"peak"`
}

// TestRangeReadsOnlyOverlappedSegments is a differential test of the
// windowed read path: /v1/range and /v1/exceedances, which reconstruct
// only the chunks their window overlaps, must answer byte for byte what
// slicing the full history answers — values and RangeBound for range,
// ScanExceedances over History for exceedances, and the same 400 for a
// window outside the history.
func TestRangeReadsOnlyOverlappedSegments(t *testing.T) {
	st, store := newArchived(t, segChunks)
	api := New(st, 0)
	total, err := st.HistoryLen("arch")
	if err != nil {
		t.Fatal(err)
	}
	seg := segChunks * archM            // samples per segment
	hot := coldSegs * segChunks * archM // first sample still in memory

	// A window inside one sealed segment loads that segment and no other.
	before := store.StoreStats().ColdReads
	if code, body := serve(api, fmt.Sprintf("/v1/range?sensor=arch&row=0&from=%d&to=%d", seg+10, 2*seg-3)); code != http.StatusOK {
		t.Fatalf("range inside segment 1: status %d: %s", code, body)
	}
	if got := store.StoreStats().ColdReads - before; got != 1 {
		t.Fatalf("range inside one sealed segment made %d cold segment loads, want 1", got)
	}

	stats, err := st.SensorStats("arch")
	if err != nil {
		t.Fatal(err)
	}
	hists := make([][]float64, stats.Quantities)
	for row := range hists {
		if hists[row], err = st.History("arch", row); err != nil {
			t.Fatal(err)
		}
	}

	type window struct{ row, from, to int }
	cases := []window{
		{0, seg + 10, 2*seg - 3},    // inside one segment
		{1, 3*seg - 20, 3*seg + 20}, // across a segment boundary
		{2, seg - 5, 4*seg + 5},     // across several segments
		{0, hot - 20, hot + 20},     // across the cold/hot boundary
		{1, hot + 3, total - 1},     // hot only
		{2, 100, 0},                 // to=0: to the end of the history
		{0, 0, 0},                   // the whole history
		{1, total, 0},               // empty window at the end
		{2, 500, 500},               // from == to
		{0, 0, total},               // explicit whole history
		{1, -3, 10},                 // outside: negative from
		{2, 10, total + 1},          // outside: past the end
		{0, 40, 30},                 // outside: from > to
		{1, total + 5, 0},           // outside: from past the resolved end
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		from := rng.Intn(total + 1)
		cases = append(cases, window{rng.Intn(len(hists)), from, from + rng.Intn(total-from+1)})
	}

	for _, c := range cases {
		hist := hists[c.row]
		to := c.to
		if to == 0 {
			to = total
		}
		thr := hist[rng.Intn(total)]
		rangeURL := fmt.Sprintf("/v1/range?sensor=arch&row=%d&from=%d&to=%d", c.row, c.from, c.to)
		excURL := fmt.Sprintf("/v1/exceedances?sensor=arch&row=%d&from=%d&to=%d&threshold=%v", c.row, c.from, c.to, thr)

		if c.from < 0 || to > total || c.from > to {
			want := encoded(t, map[string]string{"error": fmt.Sprintf(
				"httpapi: range [%d,%d) outside history [0,%d)", c.from, to, total)})
			if code, body := serve(api, rangeURL); code != http.StatusBadRequest || body != want {
				t.Fatalf("%s: %d %s, want 400 %s", rangeURL, code, body, want)
			}
			_, serr := station.ScanExceedances(hist, c.from, c.to, thr)
			want = encoded(t, map[string]string{"error": serr.Error()})
			if code, body := serve(api, excURL); code != http.StatusBadRequest || body != want {
				t.Fatalf("%s: %d %s, want 400 %s", excURL, code, body, want)
			}
			continue
		}

		var bound float64
		if c.from < to {
			if bound, err = st.RangeBound("arch", c.from, to); err != nil {
				t.Fatal(err)
			}
		}
		want := encoded(t, map[string]any{
			"sensor": "arch", "row": c.row, "from": c.from, "to": to,
			"values": hist[c.from:to], "bound": bound,
		})
		if code, body := serve(api, rangeURL); code != http.StatusOK || body != want {
			t.Fatalf("%s: %d %.300s, want 200 %.300s", rangeURL, code, body, want)
		}

		runs, err := station.ScanExceedances(hist, c.from, c.to, thr)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]runJSON, len(runs))
		for i, r := range runs {
			out[i] = runJSON{r.Start, r.End, r.Peak}
		}
		want = encoded(t, map[string]any{"sensor": "arch", "row": c.row, "threshold": thr, "runs": out})
		if code, body := serve(api, excURL); code != http.StatusOK || body != want {
			t.Fatalf("%s: %d %.300s, want 200 %.300s", excURL, code, body, want)
		}
	}
}

// BenchmarkRangeCold measures /v1/range over an archive of coldSegs sealed
// segments behind the store's default 4-segment cache. Requests cycle
// through the segments, one window inside each, so every request loads
// and decodes one segment from disk.
func BenchmarkRangeCold(b *testing.B) {
	const perSeg = 16
	st, _ := newArchived(b, perSeg)
	api := New(st, 0)
	urls := make([]string, coldSegs)
	for i := range urls {
		from := i*perSeg*archM + 5
		urls[i] = fmt.Sprintf("/v1/range?sensor=arch&row=0&from=%d&to=%d", from, from+3*archM)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, body := serve(api, urls[i%len(urls)]); code != http.StatusOK {
			b.Fatalf("status %d: %s", code, body)
		}
	}
}
