package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/metrics"
	"sbr/internal/station"
	"sbr/internal/timeseries"
)

func testConfig() core.Config {
	return core.Config{TotalBand: 120, MBase: 64, Metric: metrics.SSE}
}

// newStation builds a station with `files` transmissions of one stock
// sensor already received, and returns the transmissions for cross-checks.
func newStation(t testing.TB, files int) (*station.Station, *datagen.Dataset) {
	t.Helper()
	st, err := station.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.StocksSized(1, 64, files)
	feed(t, st, "node-1", ds, files)
	return st, ds
}

func feed(t testing.TB, st *station.Station, id string, ds *datagen.Dataset, files int) {
	t.Helper()
	comp, err := core.NewCompressor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < files; f++ {
		tr, err := comp.Encode(ds.File(f))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Receive(id, tr); err != nil {
			t.Fatal(err)
		}
	}
}

// get performs one request against the handler and decodes the JSON body.
func get(t testing.TB, api *API, url string, wantStatus int) map[string]any {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, rec.Code, wantStatus, rec.Body)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body, err)
	}
	return out
}

func TestSensorsEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	out := get(t, api, "/v1/sensors", http.StatusOK)
	sensors := out["sensors"].([]any)
	if len(sensors) != 1 {
		t.Fatalf("%d sensors, want 1", len(sensors))
	}
	info := sensors[0].(map[string]any)
	if info["id"] != "node-1" || info["transmissions"].(float64) != 4 {
		t.Fatalf("sensor info %v wrong", info)
	}
	if info["history_len"].(float64) != 4*64 {
		t.Fatalf("history_len %v, want %d", info["history_len"], 4*64)
	}
}

func TestPointEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	want, _ := st.At("node-1", 0, 17)
	out := get(t, api, "/v1/point?sensor=node-1&row=0&idx=17", http.StatusOK)
	if got := out["value"].(float64); got != want {
		t.Fatalf("point value %v, want %v", got, want)
	}
}

func TestRangeEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	want, _ := st.Range("node-1", 0, 10, 30)
	out := get(t, api, "/v1/range?sensor=node-1&row=0&from=10&to=30", http.StatusOK)
	vals := out["values"].([]any)
	if len(vals) != len(want) {
		t.Fatalf("%d values, want %d", len(vals), len(want))
	}
	for i, v := range vals {
		if v.(float64) != want[i] {
			t.Fatalf("value[%d] = %v, want %v", i, v, want[i])
		}
	}
	// to omitted → whole history.
	out = get(t, api, "/v1/range?sensor=node-1&row=0", http.StatusOK)
	if len(out["values"].([]any)) != 4*64 {
		t.Fatalf("full-range length %d, want %d", len(out["values"].([]any)), 4*64)
	}
}

func TestAggregateEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	for _, kind := range []string{"avg", "sum", "min", "max"} {
		url := fmt.Sprintf("/v1/aggregate?sensor=node-1&row=0&from=5&to=200&kind=%s", kind)
		out := get(t, api, url, http.StatusOK)
		hist, _ := st.Range("node-1", 0, 5, 200)
		var want float64
		switch kind {
		case "avg":
			want = hist.Mean()
		case "sum":
			want = hist.Sum()
		case "min":
			want = hist.Min()
		case "max":
			want = hist.Max()
		}
		if got := out["value"].(float64); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("%s = %v, want %v", kind, got, want)
		}
	}
	// Omitted `to` aggregates to the end of the history.
	out := get(t, api, "/v1/aggregate?sensor=node-1&row=0&kind=sum", http.StatusOK)
	if out["to"].(float64) != 4*64 {
		t.Fatalf("sentinel to = %v, want %d", out["to"], 4*64)
	}
}

// TestAggregateBoundMaxAbs checks the deterministic error interval: under
// the MaxAbs metric the answer ± bound must contain the true aggregate of
// the original (uncompressed) samples.
func TestAggregateBoundMaxAbs(t *testing.T) {
	cfg := core.Config{TotalBand: 200, MBase: 64, Metric: metrics.MaxAbs}
	st, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.StocksSized(3, 64, 4)
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var original timeseries.Series
	for f := 0; f < 4; f++ {
		rows := ds.File(f)
		tr, err := comp.Encode(rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Receive("mx", tr); err != nil {
			t.Fatal(err)
		}
		original = append(original, rows[0]...)
	}
	api := New(st, 0)
	out := get(t, api, "/v1/aggregate?sensor=mx&row=0&from=3&to=250&kind=avg", http.StatusOK)
	value, bound := out["value"].(float64), out["bound"].(float64)
	if bound <= 0 {
		t.Fatalf("MaxAbs sensor must report a positive bound, got %v", bound)
	}
	truth := original[3:250].Mean()
	if math.Abs(value-truth) > bound+1e-9 {
		t.Fatalf("avg %v outside guaranteed interval %v ± %v (truth %v)", value, value, bound, truth)
	}
}

func TestDownsampleEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	want, _ := st.Downsample("node-1", 0, 16)
	out := get(t, api, "/v1/downsample?sensor=node-1&row=0&points=16", http.StatusOK)
	vals := out["values"].([]any)
	if len(vals) != len(want) {
		t.Fatalf("%d values, want %d", len(vals), len(want))
	}
	for i, v := range vals {
		if v.(float64) != want[i] {
			t.Fatalf("value[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestExceedancesEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	hist, _ := st.History("node-1", 0)
	threshold := hist.Mean()
	want, _ := st.Exceedances("node-1", 0, 0, 0, threshold)
	url := fmt.Sprintf("/v1/exceedances?sensor=node-1&row=0&threshold=%v", threshold)
	out := get(t, api, url, http.StatusOK)
	runs := out["runs"].([]any)
	if len(runs) != len(want) {
		t.Fatalf("%d runs, want %d", len(runs), len(want))
	}
	for i, r := range runs {
		run := r.(map[string]any)
		if int(run["start"].(float64)) != want[i].Start ||
			int(run["end"].(float64)) != want[i].End ||
			run["peak"].(float64) != want[i].Peak {
			t.Fatalf("run[%d] = %v, want %+v", i, run, want[i])
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	st, _ := newStation(t, 2)
	api := New(st, 0)
	get(t, api, "/v1/point?sensor=ghost&row=0&idx=0", http.StatusNotFound)
	get(t, api, "/v1/point?sensor=node-1&row=99&idx=0", http.StatusBadRequest)
	get(t, api, "/v1/aggregate?sensor=node-1&row=0&kind=median", http.StatusBadRequest)
	get(t, api, "/v1/range?sensor=node-1&row=0&from=-3", http.StatusBadRequest)
	get(t, api, "/v1/exceedances?sensor=node-1&row=0", http.StatusBadRequest) // missing threshold
	get(t, api, "/v1/point?sensor=&row=0", http.StatusBadRequest)

	req := httptest.NewRequest(http.MethodPost, "/v1/sensors", nil)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

// TestHistoryCacheReuseAndInvalidation checks that repeated downsample
// reads hit the LRU and that a newly received frame makes readers see the
// longer history. (Downsample is the one endpoint that reads the whole
// history; range and exceedances bypass the cache.)
func TestHistoryCacheReuseAndInvalidation(t *testing.T) {
	st, err := station.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.StocksSized(1, 64, 6)
	feed(t, st, "node-1", ds, 3)
	api := New(st, 4)

	// More points than samples: downsample returns the whole history.
	const url = "/v1/downsample?sensor=node-1&row=0&points=1000"
	out := get(t, api, url, http.StatusOK)
	if len(out["values"].([]any)) != 3*64 {
		t.Fatalf("history %d, want %d", len(out["values"].([]any)), 3*64)
	}
	get(t, api, url, http.StatusOK)
	if api.cache.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", api.cache.len())
	}
	if h, m := api.cache.hits.Value(), api.cache.misses.Value(); h != 1 || m != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", h, m)
	}

	// Another three frames: the key (frame count) changes, readers must see
	// the grown history on the next request.
	comp, _ := core.NewCompressor(testConfig())
	for f := 0; f < 6; f++ {
		tr, err := comp.Encode(ds.File(f))
		if err != nil {
			t.Fatal(err)
		}
		if f >= 3 {
			if err := st.Receive("node-1", tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	out = get(t, api, url, http.StatusOK)
	if len(out["values"].([]any)) != 6*64 {
		t.Fatalf("post-ingest history %d, want %d", len(out["values"].([]any)), 6*64)
	}
	if m := api.cache.misses.Value(); m != 2 {
		t.Fatalf("cache misses = %d after a new frame, want 2", m)
	}

	// Range reads never touch the cache.
	get(t, api, "/v1/range?sensor=node-1&row=0", http.StatusOK)
	get(t, api, "/v1/exceedances?sensor=node-1&row=0&threshold=0", http.StatusOK)
	if h, m := api.cache.hits.Value(), api.cache.misses.Value(); h != 1 || m != 2 {
		t.Fatalf("range and exceedances moved the cache counters to %d/%d hits/misses", h, m)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newHistoryCache(2)
	k := func(i int) histKey { return histKey{sensor: "s", row: i} }
	c.put(k(0), timeseries.Series{0})
	c.put(k(1), timeseries.Series{1})
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("entry 0 evicted too early")
	}
	c.put(k(2), timeseries.Series{2}) // evicts 1 (0 was touched more recently)
	if _, ok := c.get(k(1)); ok {
		t.Fatal("entry 1 must have been evicted")
	}
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("entry 0 must survive")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
}

// TestConcurrentIngestAndQueries hammers the API from several readers
// while a writer keeps receiving frames — the serving-while-ingesting
// guarantee, meaningful under `go test -race`.
func TestConcurrentIngestAndQueries(t *testing.T) {
	st, err := station.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const files = 24
	ds := datagen.StocksSized(1, 64, files)
	feed(t, st, "node-1", ds, 2) // seed history so readers never see an empty station
	api := New(st, 8)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		comp, err := core.NewCompressor(testConfig())
		if err != nil {
			t.Error(err)
			return
		}
		for f := 0; f < files; f++ {
			tr, err := comp.Encode(ds.File(f))
			if err != nil {
				t.Error(err)
				return
			}
			if f >= 2 {
				if err := st.Receive("node-1", tr); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	urls := []string{
		"/v1/sensors",
		"/v1/point?sensor=node-1&row=0&idx=3",
		"/v1/range?sensor=node-1&row=0&from=0&to=64",
		"/v1/aggregate?sensor=node-1&row=0&kind=avg",
		"/v1/downsample?sensor=node-1&row=0&points=8",
		"/v1/exceedances?sensor=node-1&row=0&threshold=0",
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // readers
			defer wg.Done()
			for i := 0; i < 50; i++ {
				url := urls[(g+i)%len(urls)]
				req := httptest.NewRequest(http.MethodGet, url, nil)
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d (body %s)", url, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkAggregateHTTP measures end-to-end query throughput of the
// indexed aggregate endpoint.
func BenchmarkAggregateHTTP(b *testing.B) {
	st, _ := newStation(b, 10)
	api := New(st, 0)
	url := "/v1/aggregate?sensor=node-1&row=0&kind=avg"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkRangeHTTPHot measures the range path over chunks still in the
// station's memory window: no archive read, no cache.
func BenchmarkRangeHTTPHot(b *testing.B) {
	st, _ := newStation(b, 10)
	api := New(st, 0)
	url := "/v1/range?sensor=node-1&row=0&from=0&to=64"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
