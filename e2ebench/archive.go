package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/obs"
	"sbr/internal/segstore"
	"sbr/internal/station"
)

// archive_scan: a closed loop of seeded queries on two HTTP keep-alive
// connections over a preloaded multi-sensor MaxAbs archive much larger
// than every read-path cache; a traced run then restarts the station.
const (
	archiveSensors = 6   // × archiveN quantities: 192 histories, three times the 64-entry history cache
	archiveN       = 32  // quantities per batch: the most stationd's band of 150 values can cover
	archiveM       = 24  // samples per quantity per batch
	archiveChunks  = 512 // batches per sensor before the checkpoint: 2× the memory window, 8 segments
	archiveTail    = 16  // batches per sensor after the checkpoint, replayed by every restart
	archiveConns   = 2
	archiveQueries = 4096 // length of the seeded query list, used cyclically
	archiveRound   = 128  // queries per timed round
	archiveCheck   = 8    // one query in archiveCheck is checked against the truth
	archiveReplay  = 64   // frames per sensor a traced run replays through the ingest layers

	archiveWindow = segstore.DefaultSegmentChunks * archiveM // samples per query window: one segment
)

type archiveEnv struct {
	dir       string
	stk       *stack
	sensors   []*sensorSide // the archive's sensors, with their raw data
	clientReg *obs.Registry // the sensors' encoders' registry
	queries   []query
}

func (e *archiveEnv) teardown() error { return e.stk.close() }

func archiveID(i int) string { return fmt.Sprintf("archive-%02d", i) }

// truth returns raw samples of an archive sensor.
func (e *archiveEnv) truth(sensor string, row, from, to int) []float64 {
	var i int
	fmt.Sscanf(sensor, "archive-%d", &i) //nolint:errcheck — IDs are ours
	return sensorTruth(e.sensors[i], row, from, to)
}

// buildArchive encodes every sensor's batches and loads the fixture:
// each sensor's batches up to archiveChunks, a checkpoint, then
// archiveTail more, into a store without fsync (fixture preload). It then closes the store and
// starts the stack on it with stationd's durable defaults, which
// recovers from the checkpoint plus the tail.
func buildArchive(cfg *config, dir string, t0 time.Time) (*archiveEnv, error) {
	e := &archiveEnv{dir: dir, clientReg: obs.NewRegistry()}
	chunks := cfg.scaled(archiveChunks, 2*segstore.DefaultSegmentChunks)
	total := chunks + archiveTail
	frames := make([][][]byte, archiveSensors)
	errs := make([]error, archiveSensors)
	var wg sync.WaitGroup
	for k := 0; k < archiveSensors; k++ {
		s, err := newSensorSide(k, cfg.seed+7919, archiveN, archiveM, total, metrics.MaxAbs, t0)
		if err != nil {
			return nil, err
		}
		s.id = archiveID(k)
		s.log.on = cfg.trace
		s.keep = cfg.trace
		s.comp.Instrument(e.clientReg)
		e.sensors = append(e.sensors, s)
		wg.Add(1)
		go func(k int, s *sensorSide) {
			defer wg.Done()
			for c := 0; c < total && errs[k] == nil; c++ {
				var f []byte
				f, errs[k] = s.produce(c, -1)
				frames[k] = append(frames[k], f)
			}
			s.next, s.acked = total, total
			s.log.on = false
		}(k, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	dataDir := filepath.Join(dir, "station")
	seg, err := segstore.Open(segstore.Options{Dir: dataDir, Config: stationCfg, NoSync: true})
	if err != nil {
		return nil, err
	}
	st, err := station.New(stationCfg)
	if err != nil {
		return nil, err
	}
	st.SetArchive(seg, memChunks)
	load := func(from, to int) error {
		for i := 0; i < archiveSensors; i++ {
			for c := from; c < to; c++ {
				if err := st.ReceiveFrame(archiveID(i), frames[i][c]); err != nil {
					return fmt.Errorf("preloading %s batch %d: %w", archiveID(i), c, err)
				}
			}
		}
		return nil
	}
	if err := load(0, chunks); err != nil {
		return nil, err
	}
	if err := st.Checkpoint(); err != nil {
		return nil, err
	}
	if err := load(chunks, total); err != nil {
		return nil, err
	}
	if err := seg.Close(); err != nil {
		return nil, err
	}

	if e.stk, err = startStack(dataDir, cfg.log); err != nil {
		return nil, err
	}
	e.queries = archiveQueryList(cfg.seed, e.sensors, total*archiveM)
	e.round(0, nil, nil) // warm-up: one round of the list
	return e, nil
}

// archiveQueryList draws the seeded query mix: half history reads (30%
// range, 10% downsample, 10% exceedances), which the history cache serves
// or rebuild a whole history from the archive, and half direct reads (25%
// aggregate, 25% point), which read the archive's segments. The sensor is
// Zipf-skewed over the archive's sensors (the busiest draws 26% of the
// queries, the quietest 11%) and the quantity is uniform, so the history
// reads spread over three times as many histories as the cache holds and
// most of them miss. The window (one segment's samples) is Zipf-skewed
// towards the newest.
func archiveQueryList(seed int64, sensors []*sensorSide, h int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0xa5ca1e))
	pick := rand.NewZipf(rng, 1.1, 4, archiveSensors-1)
	windows := h / archiveWindow
	recent := rand.NewZipf(rng, 1.1, 2, uint64(windows-1))
	// Exceedance thresholds: each sensor quantity's 90th percentile.
	thresholds := make([][]float64, len(sensors))
	for k, s := range sensors {
		for row := 0; row < archiveN; row++ {
			v := sensorTruth(s, row, 0, h)
			sort.Float64s(v)
			thresholds[k] = append(thresholds[k], v[len(v)*9/10])
		}
	}
	out := make([]query, archiveQueries)
	for j := range out {
		i := int(pick.Uint64())
		w := windows - 1 - int(recent.Uint64())
		q := query{op: 2<<40 | int64(j), sensor: archiveID(i), row: rng.Intn(archiveN)}
		lo, hi := w*archiveWindow, (w+1)*archiveWindow
		switch p := rng.Intn(20); {
		case p < 6:
			q.kind = "range"
			q.from = lo + rng.Intn(archiveWindow/2)
			q.to = q.from + archiveWindow/4
		case p < 8:
			q.kind, q.points = "downsample", 256
		case p < 10:
			q.kind, q.from, q.to = "exceedances", lo, hi
			q.threshold = thresholds[i][q.row]
		case p < 15:
			q.kind, q.from, q.to = "aggregate", lo+rng.Intn(archiveM), hi-rng.Intn(archiveM)
			q.agg = []string{"avg", "sum", "min", "max"}[rng.Intn(4)]
		default:
			q.kind, q.idx = "point", lo+rng.Intn(archiveWindow)
		}
		out[j] = q
	}
	return out
}

// archiveOutcome is what one executed query left for the checks.
type archiveOutcome struct {
	j       int // index into the query list
	latency time.Duration
	bound   float64 // per-sample bound of the answer
	ans     *answer // the answer, for checked entries only
	err     error
}

// round runs archiveRound queries from position start of the list on
// archiveConns connections, each taking the next query when its previous
// one is answered. Outcomes go to out; logs, when given, record spans.
func (e *archiveEnv) round(start int, logs []*spanLog, out *[]archiveOutcome) time.Duration {
	var next atomic.Int64
	results := make([][]archiveOutcome, archiveConns)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < archiveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qc := newQueryClient(e.stk.httpURL)
			defer qc.close()
			var log *spanLog
			if logs != nil {
				log = logs[c]
			}
			for {
				n := int(next.Add(1)) - 1
				if n >= archiveRound {
					return
				}
				j := (start + n) % len(e.queries)
				q := &e.queries[j]
				root := log.open("query", q.op, -1)
				i := log.open("http."+q.kind, q.op, root)
				sent := time.Now()
				a, err := qc.do(q)
				lat := time.Since(sent)
				log.close(i)
				log.close(root)
				o := archiveOutcome{j: j, latency: lat, bound: q.sampleBound(a), err: err}
				if j%archiveCheck == 0 {
					o.ans = &a // kept for the output check
				}
				results[c] = append(results[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(begin)
	if out != nil {
		for _, r := range results {
			*out = append(*out, r...)
		}
	}
	return wall
}

func runArchiveScan(cfg *config, res *result) error {
	t0 := time.Now()
	e, err := repeatSetup(cfg, res, setupRepeats, func(dir string) (*archiveEnv, error) {
		return buildArchive(cfg, dir, t0)
	}, (*archiveEnv).teardown)
	if err != nil {
		return err
	}

	logs := make([]*spanLog, archiveConns)
	for c := range logs {
		logs[c] = newSpanLog(t0)
	}
	var r rates
	var outcomes []archiveOutcome
	var plainLat []float64
	st0 := snapRegistry(e.stk.reg)
	mem0 := readMem()
	var measured time.Duration
	pos := archiveRound // the warm-up ran the first round
	for n := 0; measured < cfg.timed() || n < minRounds; n++ {
		traced := cfg.trace && n%2 == 1
		for _, l := range logs {
			l.on = traced
		}
		first := len(outcomes)
		wall := e.round(pos, logs, &outcomes)
		pos += archiveRound
		measured += wall
		r.add(traced, archiveRound, wall)
		if !traced {
			for _, o := range outcomes[first:] {
				plainLat = append(plainLat, float64(o.latency)/float64(time.Millisecond))
			}
		}
	}
	for _, l := range logs {
		l.on = false
	}
	mem1 := readMem()
	st1 := snapRegistry(e.stk.reg)

	// Output checks on a seeded sample (the first execution of every
	// archiveCheck-th list entry); every failure counts.
	checked := make(map[int]bool)
	failed := 0
	var bounds []float64
	for _, o := range outcomes {
		q := &e.queries[o.j]
		if o.err != nil {
			failed++
			res.violate("query %d: %v", o.j, o.err)
			continue
		}
		if q.bounded() {
			bounds = append(bounds, o.bound)
		}
		if o.ans == nil || checked[o.j] {
			continue
		}
		checked[o.j] = true
		if err := checkAnswer(q, *o.ans, e.truth, e.stk.st); err != nil {
			failed++
			res.violate("%v", err)
		}
	}
	// Every sensor's whole history queryable, and the reconstruction
	// error of all of it.
	var sse float64
	var count int
	raw, wireBytes := 0, 0
	for _, s := range e.sensors {
		s.checkHistory(e.stk.st, res, &sse, &count)
		raw += s.acked * archiveN * archiveM
		wireBytes += s.wireBytes
	}
	res.count(len(outcomes), failed)
	res.e2e("throughput_per_s", "1/s", r.rate())
	res.e2e("latency_p50_ms", "ms", median(plainLat))
	res.e2e("recon_mse", "sq", sse/float64(count))
	res.e2e("wire_bytes_per_sample", "B", float64(wireBytes)/float64(raw))
	// Stop without the final checkpoint, so every restart of a traced run
	// recovers from the fixture's checkpoint plus its tail.
	if !cfg.trace {
		return e.stk.shutdown(false)
	}

	// Replay the traced queries through the station's entry points.
	dlog := newSpanLog(t0)
	dlog.on = true
	traced := make(map[int64]bool)
	for _, l := range logs {
		for op := range l.ops() {
			traced[op] = true
		}
	}
	for j := range e.queries {
		if traced[e.queries[j].op] {
			if err := direct(e.stk.st, &e.queries[j], dlog); err != nil {
				return fmt.Errorf("replaying query %d: %w", j, err)
			}
		}
	}
	// And every traced execution, in the order the connections started
	// them, through the query API's handler on a fresh cache.
	api := httpapi.New(e.stk.st, httpapi.DefaultCacheEntries)
	for _, op := range mergeSpans(logs...).rootOps("query") {
		if err := serveDirect(api, &e.queries[int(op&(1<<40-1))], dlog); err != nil {
			return fmt.Errorf("replaying query op %d: %w", op, err)
		}
	}
	if err := e.stk.shutdown(false); err != nil {
		return err
	}
	total := e.sensors[0].acked
	if err := restarts(res, tracedRestarts, filepath.Join(e.dir, "station"), archiveID(0), total*archiveM-1); err != nil {
		return err
	}
	// The archive was loaded without the network: replay a prefix of its
	// frames through every ingest layer.
	rlog := newSpanLog(t0)
	rlog.on = true
	fr, err := replayFrames(cfg, filepath.Join(cfg.work, "replay"), e.sensors, archiveReplay, archiveReplay, rlog)
	if err != nil {
		return fmt.Errorf("replaying frames: %w", err)
	}
	res.count(0, transportCounters(res, fr.cli0, fr.cli1, fr.stk0, fr.stk1))

	queryCounters(res, st0, st1, len(outcomes))
	lockWaits(res, fr.stk0, fr.stk1, st0, st1)
	res.layer("query.bound_width", "value", mean(bounds))
	sensorLogs := make([]*spanLog, 0, len(e.sensors)+len(logs)+2)
	for _, s := range e.sensors {
		sensorLogs = append(sensorLogs, s.log)
	}
	ss := mergeSpans(append(append(sensorLogs, logs...), dlog, rlog)...)
	frameLayers(res, ss, fr)
	encodeCounters(res, regSnap{}, snapRegistry(e.clientReg))
	queryLayers(res, ss)
	res.layer("wire.bytes_per_frame", "B", float64(wireBytes)/float64(archiveSensors*total))
	md := memBetween(mem0, mem1)
	res.layer("runtime.alloc_bytes_per_op", "B", md.allocBytes/float64(len(outcomes)))
	res.layer("runtime.gc_pause_ms", "ms", md.gcPauseMs)
	covered, wall := ss.total("httpapi.handler"), ss.total("query")
	res.layer("trace.attributed_share", "ratio", ratio(covered.Seconds(), wall.Seconds()))
	res.layer("trace.overhead_ratio", "ratio", r.overhead())
	return ss.write(cfg.spansOut)
}
