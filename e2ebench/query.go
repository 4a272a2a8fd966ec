package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"sbr/internal/station"
	"sbr/internal/timeseries"
)

// query is one HTTP query-API request the generators issue.
type query struct {
	op        int64  // shared by the query's spans and its replay
	kind      string // endpoint: point, range, aggregate, downsample, exceedances
	sensor    string
	row       int
	idx       int    // point
	from, to  int    // range, aggregate, exceedances: [from, to)
	agg       string // aggregate: avg, sum, min, max
	points    int    // downsample
	threshold float64
}

func (q *query) url(base string) string {
	v := url.Values{"sensor": {q.sensor}, "row": {strconv.Itoa(q.row)}}
	switch q.kind {
	case "point":
		v.Set("idx", strconv.Itoa(q.idx))
	case "range":
		v.Set("from", strconv.Itoa(q.from))
		v.Set("to", strconv.Itoa(q.to))
	case "aggregate":
		v.Set("from", strconv.Itoa(q.from))
		v.Set("to", strconv.Itoa(q.to))
		v.Set("kind", q.agg)
	case "downsample":
		v.Set("points", strconv.Itoa(q.points))
	case "exceedances":
		v.Set("from", strconv.Itoa(q.from))
		v.Set("to", strconv.Itoa(q.to))
		v.Set("threshold", strconv.FormatFloat(q.threshold, 'g', -1, 64))
	}
	return base + "/v1/" + q.kind + "?" + v.Encode()
}

// answer is the decoded JSON body of any query endpoint.
type answer struct {
	Value  float64   `json:"value"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Runs   []struct {
		Start int     `json:"start"`
		End   int     `json:"end"`
		Peak  float64 `json:"peak"`
	} `json:"runs"`
}

// bounded reports whether the endpoint reports a max-abs bound.
func (q *query) bounded() bool {
	return q.kind == "point" || q.kind == "range" || q.kind == "aggregate"
}

// sampleBound is an answer's bound per sample: a sum's bound accumulates
// the bounds of the samples it covers, so it is divided by their count;
// every other bound already is a per-sample max-abs error.
func (q *query) sampleBound(a answer) float64 {
	if q.kind == "aggregate" && q.agg == "sum" {
		return a.Bound / float64(q.to-q.from)
	}
	return a.Bound
}

// queryClient is one HTTP keep-alive connection to the query API.
type queryClient struct {
	base string
	hc   *http.Client
}

func newQueryClient(base string) *queryClient {
	return &queryClient{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *queryClient) close() { c.hc.CloseIdleConnections() }

// do sends q and decodes the answer. Non-200 responses and undecodable
// bodies are errors: the query failed.
func (c *queryClient) do(q *query) (answer, error) {
	var a answer
	resp, err := c.hc.Get(q.url(c.base))
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return a, fmt.Errorf("%s: HTTP %d: %s", q.kind, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return a, fmt.Errorf("%s: decoding answer: %w", q.kind, err)
	}
	return a, nil
}

// truthFn returns the raw samples [from, to) of a sensor's quantity: the
// values the generator derived from the seed and sent.
type truthFn func(sensor string, row, from, to int) []float64

// within reports |got - want| <= bound, allowing for float rounding.
func within(got, want, bound float64) bool {
	slack := 1e-9 * math.Max(1, math.Max(math.Abs(want), bound))
	return math.Abs(got-want) <= bound+slack
}

// checkAnswer verifies an answer against the raw samples: every answer
// must lie within its bound of the truth (ROADMAP invariant 1). Endpoints
// that report no bound are checked against the station's worst chunk
// bound over the range they read.
func checkAnswer(q *query, a answer, truth truthFn, st *station.Station) error {
	switch q.kind {
	case "point":
		t := truth(q.sensor, q.row, q.idx, q.idx+1)[0]
		if !within(a.Value, t, a.Bound) {
			return fmt.Errorf("point %s[%d][%d] = %g, truth %g, bound %g", q.sensor, q.row, q.idx, a.Value, t, a.Bound)
		}
	case "aggregate":
		t := aggregate(q.agg, truth(q.sensor, q.row, q.from, q.to))
		if !within(a.Value, t, a.Bound) {
			return fmt.Errorf("%s %s[%d][%d,%d) = %g, truth %g, bound %g", q.agg, q.sensor, q.row, q.from, q.to, a.Value, t, a.Bound)
		}
	case "range":
		t := truth(q.sensor, q.row, q.from, q.to)
		if len(a.Values) != len(t) {
			return fmt.Errorf("range %s[%d][%d,%d): %d values", q.sensor, q.row, q.from, q.to, len(a.Values))
		}
		for i, v := range a.Values {
			if !within(v, t[i], a.Bound) {
				return fmt.Errorf("range %s[%d] sample %d = %g, truth %g, bound %g", q.sensor, q.row, q.from+i, v, t[i], a.Bound)
			}
		}
	case "downsample":
		n, err := st.HistoryLen(q.sensor)
		if err != nil {
			return err
		}
		bound, err := st.RangeBound(q.sensor, 0, n)
		if err != nil {
			return err
		}
		want, err := station.DownsampleSeries(timeseries.Series(truth(q.sensor, q.row, 0, n)), q.points)
		if err != nil {
			return err
		}
		if len(a.Values) != len(want) {
			return fmt.Errorf("downsample %s[%d]: %d points, want %d", q.sensor, q.row, len(a.Values), len(want))
		}
		for i, v := range a.Values {
			if !within(v, want[i], bound) {
				return fmt.Errorf("downsample %s[%d] point %d = %g, truth %g, bound %g", q.sensor, q.row, i, v, want[i], bound)
			}
		}
	case "exceedances":
		bound, err := st.RangeBound(q.sensor, q.from, q.to)
		if err != nil {
			return err
		}
		for _, r := range a.Runs {
			if r.Start < q.from || r.End > q.to || r.Start >= r.End || r.Peak < q.threshold {
				return fmt.Errorf("exceedances %s[%d]: malformed run %+v", q.sensor, q.row, r)
			}
			if t := aggregate("max", truth(q.sensor, q.row, r.Start, r.End)); !within(r.Peak, t, bound) {
				return fmt.Errorf("exceedances %s[%d] run [%d,%d) peak %g, truth %g, bound %g", q.sensor, q.row, r.Start, r.End, r.Peak, t, bound)
			}
		}
	}
	return nil
}

func aggregate(kind string, xs []float64) float64 {
	switch kind {
	case "min", "max":
		v := xs[0]
		for _, x := range xs[1:] {
			if (kind == "min") == (x < v) {
				v = x
			}
		}
		return v
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	if kind == "sum" {
		return s
	}
	return s / float64(len(xs))
}

func aggKind(s string) station.AggregateKind {
	switch s {
	case "sum":
		return station.AggSum
	case "min":
		return station.AggMin
	case "max":
		return station.AggMax
	}
	return station.AggAvg
}

// direct makes the station calls the query's handler makes, through the
// station's own entry points, recording them as spans of the query's op.
// The difference from the HTTP round trip is the HTTP layer's own time.
func direct(st *station.Station, q *query, log *spanLog) error {
	var err error
	switch q.kind {
	case "point":
		i := log.open("station.point", q.op, -1)
		_, _, err = st.AtWithBound(q.sensor, q.row, q.idx)
		log.close(i)
	case "aggregate":
		i := log.open("station.aggregate", q.op, -1)
		_, _, err = st.AggregateWithBound(q.sensor, q.row, q.from, q.to, aggKind(q.agg))
		log.close(i)
	default:
		i := log.open("station.history", q.op, -1)
		_, err = st.History(q.sensor, q.row)
		log.close(i)
	}
	return err
}

// serveDirect replays q through the query API's handler in process,
// without the loopback HTTP transport and client, recording the call as
// an "httpapi.handler" span of the query's op.
func serveDirect(api http.Handler, q *query, log *spanLog) error {
	req := httptest.NewRequest(http.MethodGet, q.url(""), nil)
	rec := httptest.NewRecorder()
	i := log.open("httpapi.handler", q.op, -1)
	api.ServeHTTP(rec, req)
	log.close(i)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", q.kind, rec.Code, rec.Body.String())
	}
	return nil
}

// queryGroups groups the endpoints by the station call their handler
// makes: a point read, an aggregate, or a whole history (which the
// history cache may serve). Every workload's queries cover each group.
var queryGroups = map[string][]string{
	"point":     {"point"},
	"aggregate": {"aggregate"},
	"history":   {"range", "downsample", "exceedances"},
}

// queryLayers derives the query path's per-layer metrics from the spans
// of the HTTP calls ("http.<kind>") and their direct replays.
func queryLayers(res *result, ss *spanSet) {
	ms, us := time.Millisecond, time.Microsecond
	for g, kinds := range queryGroups {
		var xs []float64
		for _, k := range kinds {
			xs = append(xs, in(ss.durations("http."+k), ms)...)
		}
		res.layer("httpapi.request_ms_p50."+g, "ms", median(xs))
	}
	res.layer("station.history_ms_p50", "ms", median(in(ss.durations("station.history"), ms)))
	res.layer("station.aggregate_us_p50", "us", median(in(ss.durations("station.aggregate"), us)))
	res.layer("station.point_us_p50", "us", median(in(ss.durations("station.point"), us)))
	// The HTTP layer's own time, on the endpoints the history cache does
	// not serve: round trip minus the direct call for the same query.
	var self []float64
	for _, kind := range []string{"point", "aggregate"} {
		directBy := ss.byOp("station." + kind)
		for op, d := range ss.byOp("http." + kind) {
			if dd, ok := directBy[op]; ok {
				self = append(self, float64(d-dd)/float64(ms))
			}
		}
	}
	res.layer("httpapi.self_ms_p50", "ms", median(self))
}

// queryCounters reports the read path's registry deltas over a phase.
func queryCounters(res *result, a, b regSnap, queries int) {
	q := float64(queries)
	cold := delta(a, b, "sbr_segstore_cold_reads_total")
	res.layer("segstore.cold_loads_per_query", "count", cold/q)
	res.layer("segstore.singleflight_join_ratio", "ratio", ratio(delta(a, b, "sbr_segstore_singleflight_hits_total"), cold))
	res.layer("station.cold_chunks_per_query", "count", delta(a, b, "sbr_station_query_cold_chunks_total")/q)
	res.layer("query.index_nodes_per_lookup", "count",
		ratio(delta(a, b, "sbr_query_index_nodes_total"), delta(a, b, "sbr_query_index_queries_total")))
	hits := delta(a, b, `sbr_httpapi_cache_events_total{kind="hit"}`)
	res.layer("httpapi.cache_hit_ratio", "ratio",
		ratio(hits, hits+delta(a, b, `sbr_httpapi_cache_events_total{kind="miss"}`)))
}
