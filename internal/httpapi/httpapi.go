// Package httpapi exposes the base station's approximate-query engine over
// HTTP/JSON, so readers can interrogate the compressed history while
// sensor frames keep arriving. Five query kinds are served:
//
//	GET /v1/sensors                                                  — sensor inventory + reception stats
//	GET /v1/point?sensor=&row=&idx=                                  — one reconstructed sample + §4.5 bound
//	GET /v1/range?sensor=&row=&from=&to=                             — reconstructed samples of [from, to)
//	GET /v1/aggregate?sensor=&row=&from=&to=&kind=avg|sum|min|max    — indexed O(log n) aggregate + error bound
//	GET /v1/downsample?sensor=&row=&points=                          — window-averaged plotting export
//	GET /v1/exceedances?sensor=&row=&from=&to=&threshold=            — maximal runs ≥ threshold
//	GET /v1/stats                                                    — full per-sensor reception stats + cache counters
//
// Range and exceedance queries reconstruct only the chunks their window
// overlaps, so a read of one archived segment decodes that segment, not
// the whole history. Downsampling needs the whole history; it alone is
// served through a bounded LRU cache of materialised histories, so
// repeated plots of a quiet sensor cost one reconstruction. Aggregates
// never materialise anything: they hit the station's hierarchical
// aggregate index. A `to` of 0 (or omitted) means the end of
// the recorded history, matching the station's query sentinel.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/station"
	"sbr/internal/timeseries"
)

// TraceHeader carries a trace ID (16 hex digits) on a query request, so a
// read can join the trace of the frame — or workflow — that caused it.
// Responses echo the ID of whatever trace the request recorded into.
const TraceHeader = "X-Sbr-Trace"

// DefaultCacheEntries bounds the downsample history LRU when New is given
// a non-positive capacity: enough for a handful of hot sensor/quantity
// pairs without letting a scan over thousands of sensors pin every
// reconstruction in memory.
const DefaultCacheEntries = 64

// API is the HTTP front end over one station. It implements http.Handler.
type API struct {
	st    *station.Station
	cache *historyCache
	mux   *http.ServeMux
	reg   *obs.Registry // nil when uninstrumented
}

// New builds the front end. cacheEntries bounds the LRU of reconstructed
// histories that downsample reads through; non-positive means
// DefaultCacheEntries.
func New(st *station.Station, cacheEntries int) *API {
	return NewObserved(st, cacheEntries, nil)
}

// NewObserved is New with telemetry: per-endpoint request counters and
// latency histograms plus the history-cache counters are registered on
// reg (nil: uninstrumented, identical to New).
func NewObserved(st *station.Station, cacheEntries int, reg *obs.Registry) *API {
	if cacheEntries <= 0 {
		cacheEntries = DefaultCacheEntries
	}
	a := &API{st: st, cache: newHistoryCache(cacheEntries), mux: http.NewServeMux(), reg: reg}
	if reg != nil {
		const help = "History-cache events, by kind."
		a.cache.hits = reg.Counter("sbr_httpapi_cache_events_total", help, obs.L("kind", "hit"))
		a.cache.misses = reg.Counter("sbr_httpapi_cache_events_total", help, obs.L("kind", "miss"))
		a.cache.evictions = reg.Counter("sbr_httpapi_cache_events_total", help, obs.L("kind", "eviction"))
		a.cache.size = reg.Gauge("sbr_httpapi_history_cache_entries",
			"Reconstructed histories currently held by the query-API LRU.")
	}
	a.handle("/v1/sensors", a.handleSensors)
	a.handle("/v1/point", a.handlePoint)
	a.handle("/v1/range", a.handleRange)
	a.handle("/v1/aggregate", a.handleAggregate)
	a.handle("/v1/downsample", a.handleDownsample)
	a.handle("/v1/exceedances", a.handleExceedances)
	a.handle("/v1/stats", a.handleStats)
	return a
}

// spanKey carries the request span through the handler context.
type spanKey struct{}

// reqSpan returns the request's trace span (nil: untraced request).
func reqSpan(r *http.Request) *trace.Span {
	sp, _ := r.Context().Value(spanKey{}).(*trace.Span)
	return sp
}

// handle registers one endpoint, wrapped with its request counter and
// latency histogram (nil-safe no-ops when uninstrumented) and, when the
// station has a tracer, a per-request span: a request carrying the
// TraceHeader joins that trace — the "which frame made this query slow"
// join — while any other request may birth one under the recorder's
// sampling policy.
func (a *API) handle(path string, h http.HandlerFunc) {
	reqs := a.reg.Counter("sbr_httpapi_requests_total",
		"Query-API requests served, by endpoint.", obs.L("endpoint", path))
	secs := a.reg.Histogram("sbr_httpapi_request_seconds",
		"Query-API request latency, by endpoint.", obs.LatencyBuckets, obs.L("endpoint", path))
	a.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if rec := a.st.Tracer(); rec != nil {
			var tr *trace.Trace
			if id, ok := trace.ParseID(r.Header.Get(TraceHeader)); ok {
				tr = rec.Continue(id, r.URL.Query().Get("sensor"))
			} else {
				tr = rec.Begin(r.URL.Query().Get("sensor"))
			}
			if tr != nil {
				sp := tr.StartSpan("http." + strings.TrimPrefix(path, "/v1/"))
				sp.Annotate("query", r.URL.RawQuery)
				w.Header().Set(TraceHeader, tr.TraceID().String())
				r = r.WithContext(context.WithValue(r.Context(), spanKey{}, sp))
				defer func() {
					sp.End()
					tr.Finish()
				}()
			}
		}
		h(w, r)
		reqs.Inc()
		secs.Observe(time.Since(start).Seconds())
	})
}

// ServeHTTP dispatches to the query handlers.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("httpapi: method %s not allowed", r.Method))
		return
	}
	a.mux.ServeHTTP(w, r)
}

// history returns the reconstructed history of one quantity through the
// LRU, for downsampling. The sensor's transmission count keys the entry,
// so a newly received frame misses and triggers one fresh reconstruction.
// The cache verdict and any reconstruction (with its cold archive
// fetches) are recorded as children of sp.
func (a *API) history(id string, row int, sp *trace.Span) (timeseries.Series, error) {
	stats, err := a.st.SensorStats(id)
	if err != nil {
		return nil, err
	}
	k := histKey{sensor: id, row: row, frames: stats.Transmissions}
	csp := sp.Child("httpapi.cache")
	if hist, ok := a.cache.get(k); ok {
		csp.Annotate("verdict", "hit")
		csp.End()
		return hist, nil
	}
	csp.Annotate("verdict", "miss")
	csp.End()
	hsp := sp.Child("station.history")
	hist, err := a.st.HistoryTraced(id, row, hsp)
	hsp.End()
	if err != nil {
		return nil, err
	}
	a.cache.put(k, hist)
	return hist, nil
}

// sensorInfo is one row of the /v1/sensors inventory.
type sensorInfo struct {
	ID            string `json:"id"`
	Transmissions int    `json:"transmissions"`
	Quantities    int    `json:"quantities"`
	SamplesPerRow int    `json:"samples_per_row"`
	HistoryLen    int    `json:"history_len"`
	Restarts      int    `json:"restarts"`
}

func (a *API) handleSensors(w http.ResponseWriter, r *http.Request) {
	ids := a.st.Sensors()
	out := make([]sensorInfo, 0, len(ids))
	for _, id := range ids {
		stats, err := a.st.SensorStats(id)
		if err != nil {
			continue // sensor raced away; inventory stays best-effort
		}
		out = append(out, sensorInfo{
			ID:            id,
			Transmissions: stats.Transmissions,
			Quantities:    stats.Quantities,
			SamplesPerRow: stats.SamplesPerRow,
			HistoryLen:    stats.Transmissions * stats.SamplesPerRow,
			Restarts:      stats.Restarts,
		})
	}
	writeJSON(w, map[string]any{"sensors": out})
}

// sensorStatsJSON mirrors station.Stats for the /v1/stats export.
type sensorStatsJSON struct {
	Transmissions int   `json:"transmissions"`
	Quantities    int   `json:"quantities"`
	SamplesPerRow int   `json:"samples_per_row"`
	RawBytes      int   `json:"raw_bytes"`
	Values        int   `json:"values"`
	BaseInserts   []int `json:"base_inserts"`
	Restarts      int   `json:"restarts"`
}

// handleStats serves the full per-sensor reception statistics plus the
// history-cache counters — the JSON twin of stationd's periodic report.
func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	sensors := make(map[string]sensorStatsJSON)
	for _, id := range a.st.Sensors() {
		stats, err := a.st.SensorStats(id)
		if err != nil {
			continue // sensor raced away; stats stay best-effort
		}
		sensors[id] = sensorStatsJSON{
			Transmissions: stats.Transmissions,
			Quantities:    stats.Quantities,
			SamplesPerRow: stats.SamplesPerRow,
			RawBytes:      stats.RawBytes,
			Values:        stats.Values,
			BaseInserts:   stats.BaseInserts,
			Restarts:      stats.Restarts,
		}
	}
	out := map[string]any{
		"sensors": sensors,
		"cache": map[string]any{
			"hits":      a.cache.hits.Value(),
			"misses":    a.cache.misses.Value(),
			"evictions": a.cache.evictions.Value(),
			"entries":   a.cache.len(),
		},
	}
	// Read-path counters: query volume and chunks served cold from the
	// archive (the store's singleflight totals ride along under "store").
	out["query"] = a.st.ReadStats()
	if store := a.st.Archive(); store != nil {
		out["store"] = store.StoreStats()
	}
	// Latency SLOs without a Prometheus server: every registered
	// histogram reduced to interpolated p50/p95/p99.
	if lat := a.reg.HistogramSummaries(); len(lat) > 0 {
		out["latency"] = lat
	}
	writeJSON(w, out)
}

func (a *API) handlePoint(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	idx, err := intParam(r, "idx", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	value, bound, err := a.st.AtWithBound(id, row, idx)
	if err != nil {
		writeStationError(w, err)
		return
	}
	writeJSON(w, map[string]any{"sensor": id, "row": row, "idx": idx, "value": value, "bound": bound})
}

func (a *API) handleRange(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	win, err := a.st.RangeWindow(id, row, from, to, reqSpan(r))
	if re := (*station.RangeError)(nil); errors.As(err, &re) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("httpapi: range [%d,%d) outside history [0,%d)", re.From, re.To, re.Len))
		return
	}
	if err != nil {
		writeStationError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"sensor": id, "row": row, "from": win.From, "to": win.To,
		"values": win.Values, "bound": win.Bound,
	})
}

func (a *API) handleAggregate(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	kind, err := parseKind(r.URL.Query().Get("kind"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if to == 0 {
		if to, err = a.st.HistoryLen(id); err != nil {
			writeStationError(w, err)
			return
		}
	}
	value, bound, err := a.st.AggregateWithBoundTraced(id, row, from, to, kind, reqSpan(r))
	if err != nil {
		writeStationError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"sensor": id, "row": row, "from": from, "to": to,
		"kind": r.URL.Query().Get("kind"), "value": value, "bound": bound,
	})
}

func (a *API) handleDownsample(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	points, err := intParam(r, "points", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hist, err := a.history(id, row, reqSpan(r))
	if err != nil {
		writeStationError(w, err)
		return
	}
	out, err := station.DownsampleSeries(hist, points)
	if err != nil {
		writeStationError(w, err)
		return
	}
	writeJSON(w, map[string]any{"sensor": id, "row": row, "values": out})
}

func (a *API) handleExceedances(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	threshold, err := floatParam(r, "threshold")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	runs, err := a.st.ExceedancesTraced(id, row, from, to, threshold, reqSpan(r))
	if err != nil {
		writeStationError(w, err)
		return
	}
	type runJSON struct {
		Start int     `json:"start"`
		End   int     `json:"end"`
		Peak  float64 `json:"peak"`
	}
	out := make([]runJSON, len(runs))
	for i, e := range runs {
		out[i] = runJSON{Start: e.Start, End: e.End, Peak: e.Peak}
	}
	writeJSON(w, map[string]any{
		"sensor": id, "row": row, "threshold": threshold, "runs": out,
	})
}

// target parses the sensor/row pair every per-quantity endpoint needs.
func (a *API) target(w http.ResponseWriter, r *http.Request) (string, int, bool) {
	id := r.URL.Query().Get("sensor")
	if id == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: missing sensor parameter"))
		return "", 0, false
	}
	row, err := intParam(r, "row", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return "", 0, false
	}
	return id, row, true
}

func parseKind(s string) (station.AggregateKind, error) {
	switch strings.ToLower(s) {
	case "", "avg", "mean":
		return station.AggAvg, nil
	case "sum":
		return station.AggSum, nil
	case "min":
		return station.AggMin, nil
	case "max":
		return station.AggMax, nil
	}
	return 0, fmt.Errorf("httpapi: unknown aggregate kind %q", s)
}

func rangeParams(r *http.Request) (from, to int, err error) {
	if from, err = intParam(r, "from", 0); err != nil {
		return 0, 0, err
	}
	if to, err = intParam(r, "to", 0); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("httpapi: bad %s parameter %q", name, s)
	}
	return v, nil
}

func floatParam(r *http.Request, name string) (float64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, fmt.Errorf("httpapi: missing %s parameter", name)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("httpapi: bad %s parameter %q", name, s)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck — client gone mid-write, nothing to do
}

// writeStationError maps station errors onto HTTP statuses: unknown
// sensors are 404, everything else a client-side 400.
func writeStationError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if strings.Contains(err.Error(), "unknown sensor") {
		status = http.StatusNotFound
	}
	writeError(w, status, err)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
