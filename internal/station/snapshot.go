package station

// This file is the station's read path. Every historical query —
// History, At, Range, RangeWindow, the aggregates and the windowed Run —
// starts by capturing a snapshot of the sensor's state under a brief
// acquisition of the sensor's lock, then runs entirely lock-free: index
// walks, exact edge scans and cold archive fetches (disk reads + segment
// decodes) never hold any station lock, so a slow cold query blocks neither
// ingest nor other readers. See the package comment for why the captured
// headers stay valid while the writer keeps appending and evicting.

import (
	"fmt"
	"math"
	"time"

	"sbr/internal/obs/trace"
	"sbr/internal/query"
	"sbr/internal/segstore"
	"sbr/internal/timeseries"
)

// snap is an immutable view of one sensor's history, valid without locks
// for its whole lifetime. Chunks [0, first) are cold (archive only);
// window[i] holds global chunk first+i; bounds and index cover the full
// history [0, first+len(window)).
type snap struct {
	id     string
	n, m   int
	first  int
	window [][]timeseries.Series
	bounds []float64
	index  *query.Snapshot
	store  *segstore.Store
	met    *stationMetrics
}

func (sn *snap) totalChunks() int  { return sn.first + len(sn.window) }
func (sn *snap) totalSamples() int { return sn.totalChunks() * sn.m }

// snapshot captures the named sensor's read view and validates the
// quantity row. The common case — a sensor that has not absorbed a frame
// since the last query — is one atomic load of the cached view: no lock,
// no allocation. On a miss the sensor lock is held only for the header
// copies, and the fresh view is published for the readers behind us
// (while still holding the lock, so a stale view can never overwrite a
// writer's invalidation).
func (s *Station) snapshot(id string, row int) (*snap, error) {
	log := s.lookupLog(id)
	if log == nil {
		return nil, fmt.Errorf("station: unknown sensor %q", id)
	}
	sn := log.view.Load()
	if sn == nil {
		store, _ := s.archiveBinding()
		met := s.metrics()
		if met.queryLockWait != nil {
			t0 := time.Now()
			log.mu.Lock()
			met.queryLockWait.Observe(time.Since(t0).Seconds())
		} else {
			log.mu.Lock()
		}
		sn = &snap{
			id:     id,
			n:      log.n,
			m:      log.m,
			first:  log.first,
			window: log.chunks,
			bounds: log.bounds,
			store:  store,
			met:    met,
		}
		if log.index != nil {
			sn.index = log.index.Snapshot()
		}
		log.view.Store(sn)
		log.mu.Unlock()
	}
	if row < 0 || row >= sn.n {
		return nil, fmt.Errorf("station: sensor %q has %d quantities, row %d requested",
			id, sn.n, row)
	}
	return sn, nil
}

// queryTimer counts one query and returns the latency observer to defer.
func (s *Station) queryTimer() func() {
	met := s.metrics()
	met.queries.Inc()
	if met.querySeconds == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { met.querySeconds.Observe(time.Since(t0).Seconds()) }
}

// chunkRows returns the decoded rows of global chunk c: straight from the
// snapshot window when c is inside it, otherwise cold from the archive
// (the segment holding c is loaded, decoded and cached — deduplicated
// with any concurrent fetch of the same segment by the store's
// singleflight). Cold fetches are recorded as children of sp.
func (sn *snap) chunkRows(c int, sp *trace.Span) ([]timeseries.Series, error) {
	if c >= sn.first {
		if i := c - sn.first; i < len(sn.window) {
			return sn.window[i], nil
		}
		return nil, fmt.Errorf("station: sensor %q chunk %d beyond recorded history", sn.id, c)
	}
	if sn.store == nil {
		return nil, fmt.Errorf("station: sensor %q chunk %d evicted and no archive attached", sn.id, c)
	}
	csp := sp.Child("segstore.cold_fetch")
	csp.AnnotateInt("chunk", int64(c))
	rows, _, err := sn.store.ChunkRows(sn.id, c)
	csp.End()
	if err == nil {
		sn.met.queryCold.Inc()
	}
	return rows, err
}

// coldRange streams the decoded rows of cold chunks [c0, c1) in order,
// fanning segment decodes out through the store's parallel fetch path,
// recorded as one segstore.cold_fetch span covering the whole fan.
func (sn *snap) coldRange(c0, c1 int, sp *trace.Span, fn func(c int, rows []timeseries.Series) error) error {
	if sn.store == nil {
		return fmt.Errorf("station: sensor %q chunk %d evicted and no archive attached", sn.id, c0)
	}
	csp := sp.Child("segstore.cold_fetch")
	csp.AnnotateInt("chunks", int64(c1-c0))
	err := sn.store.ChunkRangeRows(sn.id, c0, c1, func(c int, rows []timeseries.Series, _ float64) error {
		return fn(c, rows)
	})
	csp.End()
	if err == nil {
		sn.met.queryCold.Add(uint64(c1 - c0))
	}
	return err
}

// History returns the full reconstructed history of quantity row of the
// named sensor: the concatenation of that row across every received chunk,
// decoding archived segments for any chunk evicted from memory. It fails
// with the archive's purge error when retention has dropped part of the
// history.
func (s *Station) History(id string, row int) (timeseries.Series, error) {
	return s.HistoryTraced(id, row, nil)
}

// HistoryTraced is History recording its archive cold fetches as children
// of sp (nil: identical to History).
func (s *Station) HistoryTraced(id string, row int, sp *trace.Span) (timeseries.Series, error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return nil, err
	}
	out := make(timeseries.Series, 0, sn.totalSamples())
	if sn.first > 0 {
		err := sn.coldRange(0, sn.first, sp, func(_ int, rows []timeseries.Series) error {
			out = append(out, rows[row]...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, rows := range sn.window {
		out = append(out, rows[row]...)
	}
	return out, nil
}

// At answers a historical point query: the reconstructed value of quantity
// row at global sample index idx (counted from the first transmission).
// Samples evicted from memory are served cold from the archive.
func (s *Station) At(id string, row, idx int) (float64, error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return 0, err
	}
	if idx < 0 || idx >= sn.totalSamples() {
		return 0, fmt.Errorf("station: sample %d outside recorded history [0,%d)",
			idx, sn.totalSamples())
	}
	rows, err := sn.chunkRows(idx/sn.m, nil)
	if err != nil {
		return 0, err
	}
	return rows[row][idx%sn.m], nil
}

// AtWithBound answers a point query together with the guaranteed maximum
// absolute error of the chunk the sample came from (Section 4.5). The
// bound is zero when the sensor did not run under the MaxAbs metric.
func (s *Station) AtWithBound(id string, row, idx int) (value, bound float64, err error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return 0, 0, err
	}
	if idx < 0 || idx >= sn.totalSamples() {
		return 0, 0, fmt.Errorf("station: sample %d outside recorded history [0,%d)",
			idx, sn.totalSamples())
	}
	rows, err := sn.chunkRows(idx/sn.m, nil)
	if err != nil {
		return 0, 0, err
	}
	return rows[row][idx%sn.m], sn.bounds[idx/sn.m], nil
}

// Range answers a historical range query over [from, to) of quantity row,
// materialising only the chunks the range overlaps.
func (s *Station) Range(id string, row, from, to int) (timeseries.Series, error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return nil, err
	}
	if err := sn.checkRange(from, to); err != nil {
		return nil, err
	}
	return sn.rangeRows(row, from, to, nil)
}

// RangeError reports a sample range [From, To) that does not fit the Len
// samples of the recorded history.
type RangeError struct{ From, To, Len int }

func (e *RangeError) Error() string {
	return fmt.Sprintf("station: range [%d,%d) outside history [0,%d)", e.From, e.To, e.Len)
}

// checkRange validates [from, to) against the snapshot's history.
func (sn *snap) checkRange(from, to int) error {
	if total := sn.totalSamples(); from < 0 || to > total || from > to {
		return &RangeError{From: from, To: to, Len: total}
	}
	return nil
}

// Window is the answer to a range query: the reconstructed samples of
// [From, To) of one quantity and the worst guaranteed maximum absolute
// error (§4.5) of the chunks they came from — zero for an empty window or
// a sensor that did not run under the MaxAbs metric.
type Window struct {
	From, To int
	Values   timeseries.Series
	Bound    float64
}

// RangeWindow answers a range query over [from, to) of quantity row with
// its error bound, both from one snapshot; to == 0 means the end of the
// recorded history. Only the chunks the window overlaps are reconstructed,
// and the archive fetches for its cold part are recorded under a
// station.range child of sp (nil: untraced). An out-of-history window
// fails with a *RangeError.
func (s *Station) RangeWindow(id string, row, from, to int, sp *trace.Span) (Window, error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return Window{}, err
	}
	if to == 0 {
		to = sn.totalSamples()
	}
	if err := sn.checkRange(from, to); err != nil {
		return Window{}, err
	}
	rsp := sp.Child("station.range")
	vals, err := sn.rangeRows(row, from, to, rsp)
	rsp.End()
	if err != nil {
		return Window{}, err
	}
	w := Window{From: from, To: to, Values: vals}
	if from < to {
		w.Bound = sn.worstBound(from, to)
	}
	return w, nil
}

// worstBound is the largest §4.5 bound of the chunks the non-empty,
// validated range [from, to) overlaps.
func (sn *snap) worstBound(from, to int) float64 {
	var worst float64
	for _, b := range sn.bounds[from/sn.m : (to-1)/sn.m+1] {
		worst = max(worst, b)
	}
	return worst
}

// rangeRows materialises [from, to) of quantity row from the chunks the
// range overlaps: the cold prefix through the archive's parallel segment
// fan-out, the in-memory suffix straight off the snapshot window. The
// caller has validated the range.
func (sn *snap) rangeRows(row, from, to int, sp *trace.Span) (timeseries.Series, error) {
	out := make(timeseries.Series, 0, to-from)
	if from == to {
		return out, nil
	}
	clip := func(c int, rows []timeseries.Series) {
		lo := from - c*sn.m
		if lo < 0 {
			lo = 0
		}
		hi := sn.m
		if limit := to - c*sn.m; limit < hi {
			hi = limit
		}
		out = append(out, rows[row][lo:hi]...)
	}
	cLo := from / sn.m
	cHi := (to + sn.m - 1) / sn.m
	if coldHi := min(cHi, sn.first); cLo < coldHi {
		err := sn.coldRange(cLo, coldHi, sp, func(c int, rows []timeseries.Series) error {
			clip(c, rows)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for c := max(cLo, sn.first); c < cHi; c++ {
		clip(c, sn.window[c-sn.first])
	}
	return out, nil
}

// AggregateKind selects a range-aggregate function.
type AggregateKind int

const (
	AggAvg AggregateKind = iota
	AggSum
	AggMin
	AggMax
)

// Aggregate answers a historical aggregate query over [from, to) of
// quantity row. It is answered from the hierarchical aggregate index in
// O(log n) chunk-summary merges; only the ragged sub-chunk edges of the
// range touch the reconstructed samples.
func (s *Station) Aggregate(id string, row, from, to int, kind AggregateKind) (float64, error) {
	v, _, err := s.AggregateWithBound(id, row, from, to, kind)
	return v, err
}

// AggregateWithBound answers an aggregate query together with the
// guaranteed maximum absolute error of the answer, derived from the §4.5
// per-chunk bounds the sensors shipped: for Sum the bounds of the covered
// samples accumulate, for Avg they average, and for Min/Max the worst
// per-sample bound applies. The bound is zero when the sensor did not run
// under the MaxAbs metric.
func (s *Station) AggregateWithBound(id string, row, from, to int, kind AggregateKind) (value, bound float64, err error) {
	return s.AggregateWithBoundTraced(id, row, from, to, kind, nil)
}

// AggregateWithBoundTraced is AggregateWithBound recording the index walk
// and any archive cold fetches as children of sp (nil: untraced).
func (s *Station) AggregateWithBoundTraced(id string, row, from, to int, kind AggregateKind, sp *trace.Span) (value, bound float64, err error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return 0, 0, err
	}
	if err := sn.checkRange(from, to); err != nil {
		return 0, 0, err
	}
	if from == to {
		return 0, 0, fmt.Errorf("station: aggregate over empty range [%d,%d)", from, to)
	}
	wsp := sp.Child("query.index_walk")
	sum, err := sn.summarize(row, from, to, sp)
	wsp.End()
	if err != nil {
		return 0, 0, err
	}
	return answerSummary(sum, kind)
}

// answerSummary turns a merged span summary into the aggregate answer and
// its guaranteed maximum absolute error.
func answerSummary(sum query.Summary, kind AggregateKind) (value, bound float64, err error) {
	switch kind {
	case AggAvg:
		return sum.Sum / float64(sum.Count), sum.BoundSum / float64(sum.Count), nil
	case AggSum:
		return sum.Sum, sum.BoundSum, nil
	case AggMin:
		return sum.Min, sum.BoundMax, nil
	case AggMax:
		return sum.Max, sum.BoundMax, nil
	default:
		return math.NaN(), 0, fmt.Errorf("station: unknown aggregate kind %d", kind)
	}
}

// summarize reduces [from, to) of one quantity: whole chunks come from the
// aggregate-index snapshot in O(log n) merges (the index spans the full
// history, evicted chunks included), the ragged edges from an exact scan
// of the overlapped chunk windows — cold-loaded from the archive when
// evicted. The caller has validated the range.
func (sn *snap) summarize(row, from, to int, sp *trace.Span) (query.Summary, error) {
	m := sn.m
	c0 := (from + m - 1) / m // first fully covered chunk
	c1 := to / m             // one past the last fully covered chunk
	if c0 >= c1 {
		// The range lives inside one chunk or straddles one boundary with
		// no whole chunk in between: the exact scan is already minimal.
		return sn.scanRange(row, from, to, sp)
	}
	sum, err := sn.index.QueryChunks(row, c0, c1)
	if err != nil {
		// Unreachable: receive() keeps the index in lock-step with chunks,
		// and the snapshot captured both under one lock.
		panic(err)
	}
	if lead := c0 * m; from < lead {
		edge, err := sn.scanRange(row, from, lead, sp)
		if err != nil {
			return query.Summary{}, err
		}
		sum = query.Merge(edge, sum)
	}
	if tail := c1 * m; tail < to {
		edge, err := sn.scanRange(row, tail, to, sp)
		if err != nil {
			return query.Summary{}, err
		}
		sum = query.Merge(sum, edge)
	}
	return sum, nil
}

// scanRange summarises [from, to) exactly by reducing each overlapped
// chunk window in place, fetching evicted chunks cold from the archive.
func (sn *snap) scanRange(row, from, to int, sp *trace.Span) (query.Summary, error) {
	var out query.Summary
	for from < to {
		c := from / sn.m
		rows, err := sn.chunkRows(c, sp)
		if err != nil {
			return query.Summary{}, err
		}
		lo := from - c*sn.m
		hi := sn.m
		if limit := to - c*sn.m; limit < hi {
			hi = limit
		}
		out = query.Merge(out, query.Summarize(rows[row][lo:hi], sn.bounds[c]))
		from = c*sn.m + hi
	}
	return out, nil
}
