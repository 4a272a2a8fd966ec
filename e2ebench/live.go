package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/outbox"
	"sbr/internal/segstore"
)

// live_mixed: one durable MaxAbs sensor sending small batches at a fixed
// rate, each flushed, beside one HTTP connection running dashboard
// queries on the newest data at a fixed rate. Both loops are open: work
// is due on a schedule whether or not the previous item has finished.
const (
	liveN         = 6     // quantities per batch
	liveM         = 32    // samples per quantity per batch
	livePreload   = 256   // batches of history loaded during set-up: the memory window
	liveFrameRate = 25.0  // batches per second: a stall's backlog stays out of the median
	liveQueryRate = 100.0 // dashboard queries per second: a range rebuild (1–2 ms) ends well within the period
	liveAggWindow = 512   // samples an aggregate covers, ending at the newest
	liveRangeLen  = 256   // samples a range query returns, ending at the newest
	liveWarmup    = 8     // batches the set-up sends through the outbox, short of a compaction
)

type liveEnv struct {
	dir       string
	stk       *stack
	sensor    *sensorSide
	clientReg *obs.Registry
	qc        *queryClient
}

func (e *liveEnv) teardown() error {
	e.qc.close()
	_, err := e.sensor.disconnect()
	if serr := e.stk.close(); err == nil {
		err = serr
	}
	return err
}

// sendFlush delivers batch k and waits for its acknowledgement: the
// sensor flushes every batch, so the acknowledgement marks the moment
// its samples became queryable.
func (s *sensorSide) sendFlush(k int, parent int) error {
	frame, err := s.produce(k, parent)
	if err != nil {
		return err
	}
	op := s.opID(k)
	i := s.log.open("netio.send", op, parent)
	err = s.rc.Send(frame)
	s.log.close(i)
	if err != nil {
		return fmt.Errorf("%s batch %d: send: %w", s.id, k, err)
	}
	i = s.log.open("netio.flush", op, parent)
	err = s.rc.Flush()
	s.log.close(i)
	if err != nil {
		return fmt.Errorf("%s batch %d: flush: %w", s.id, k, err)
	}
	s.next = k + 1
	s.acked = s.next
	return nil
}

func runLiveMixed(cfg *config, res *result) error {
	t0 := time.Now()
	preload := cfg.scaled(livePreload/segstore.DefaultSegmentChunks, 1) * segstore.DefaultSegmentChunks
	files := preload + int(liveFrameRate*cfg.seconds) + 2*segstore.DefaultSegmentChunks
	build := func(dir string) (*liveEnv, error) {
		e := &liveEnv{dir: dir, clientReg: obs.NewRegistry()}
		var err error
		if e.stk, err = startStack(filepath.Join(dir, "station"), cfg.log); err != nil {
			return nil, err
		}
		s, err := newSensorSide(0, cfg.seed, liveN, liveM, files, metrics.MaxAbs, t0)
		if err != nil {
			return nil, err
		}
		s.comp.Instrument(e.clientReg)
		s.keep = cfg.trace
		e.sensor = s
		// History the dashboard reads: whole segments, so the live
		// sensor's seals line up with its outbox compactions.
		for k := 0; k < preload; k++ {
			frame, err := s.produce(k, -1)
			if err != nil {
				return nil, err
			}
			if err := e.stk.st.ReceiveFrame(s.id, frame); err != nil {
				return nil, fmt.Errorf("preloading batch %d: %w", k, err)
			}
			s.next, s.acked = k+1, k+1
		}
		if err := s.connect(e.stk.srv.Addr(), filepath.Join(dir, s.id+".outbox"),
			netio.NewMetrics(e.clientReg), outbox.NewMetrics(e.clientReg), cfg.log); err != nil {
			return nil, err
		}
		e.qc = newQueryClient(e.stk.httpURL)
		// Warm-up: a few batches and one query of each kind. The set-up
		// holds no outbox compaction or segment seal, whose renames would
		// set its time.
		for k := 0; k < liveWarmup; k++ {
			if err := s.sendFlush(s.next, -1); err != nil {
				return nil, err
			}
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		for _, kind := range []string{"point", "aggregate", "range"} {
			q := liveQuery(rng, kind, s.id, s.acked*liveM)
			if _, err := e.qc.do(&q); err != nil {
				return nil, fmt.Errorf("warm-up query: %w", err)
			}
		}
		return e, nil
	}
	e, err := repeatSetup(cfg, res, setupRepeats, build, (*liveEnv).teardown)
	if err != nil {
		return err
	}
	return livePhase(cfg, res, e)
}

// liveMix draws a dashboard query kind: 45% point, 45% aggregate, 10%
// range. A dashboard refreshes its current values and summaries more
// often than it redraws a plot.
func liveMix(rng *rand.Rand) string {
	switch p := rng.Intn(20); {
	case p < 9:
		return "point"
	case p < 18:
		return "aggregate"
	}
	return "range"
}

// liveQuery makes a dashboard query of the given kind on the newest h
// samples: a point in the newest batch, an aggregate over the newest
// liveAggWindow samples or a range over the newest liveRangeLen.
func liveQuery(rng *rand.Rand, kind, id string, h int) query {
	q := query{kind: kind, sensor: id, row: rng.Intn(liveN)}
	switch kind {
	case "point":
		q.idx = h - 1 - rng.Intn(liveM)
	case "aggregate":
		q.from, q.to = h-liveAggWindow, h
		q.agg = []string{"avg", "sum", "min", "max"}[rng.Intn(4)]
	case "range":
		q.from, q.to = h-liveRangeLen, h
	}
	return q
}

// liveResult is one open-loop operation's outcome.
type liveResult struct {
	latency, late time.Duration
	traced        bool
}

func livePhase(cfg *config, res *result, e *liveEnv) error {
	s := e.sensor
	framePeriod := time.Duration(float64(time.Second) / liveFrameRate)
	queryPeriod := time.Duration(float64(time.Second) / liveQueryRate)
	// Traced and untraced stretches alternate per outbox cycle of 64
	// batches. A cycle starts with the batch whose acknowledgement
	// compacts the outbox and whose append seals a segment (every 64th
	// batch through the outbox, counting the warm-up; the preload is
	// whole segments), so each stretch holds one whole stall and the
	// backlog behind it.
	cycle := outbox.DefaultCompactEvery
	stretch := func(i int) bool { return cfg.trace && ((i+1+liveWarmup)/cycle)%2 == 1 }
	nFrames := int(cfg.seconds * liveFrameRate)
	nQueries := int(cfg.seconds * liveQueryRate)
	var acked atomic.Int64
	acked.Store(int64(s.acked))

	st0, cli0 := snapRegistry(e.stk.reg), snapRegistry(e.clientReg)
	mem0 := readMem()
	start := time.Now().Add(10 * time.Millisecond)

	// Sensor loop: batch i is complete, and due to be sent, at
	// start + i·framePeriod. s2q runs from that due time to the ack.
	frames := make([]liveResult, 0, nFrames)
	first := s.next
	var sendErr error
	var sendEnd time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nFrames; i++ {
			due := start.Add(time.Duration(i) * framePeriod)
			time.Sleep(time.Until(due))
			traced := stretch(i)
			s.log.on = traced
			sent := time.Now()
			root := s.log.add("frame", s.opID(first+i), -1, due, due)
			err := s.sendFlush(first+i, root)
			s.log.close(root)
			if err != nil {
				sendErr = err
				return
			}
			acked.Store(int64(s.acked))
			frames = append(frames, liveResult{latency: time.Since(due), late: sent.Sub(due), traced: traced})
		}
		s.log.on = false
		sendEnd = time.Now()
	}()

	// Query loop, on the caller's goroutine and one connection.
	qlog := newSpanLog(s.log.t0)
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	queries := make([]query, 0, nQueries)
	answers := make([]answer, 0, nQueries)
	qlate := make([]time.Duration, 0, nQueries)
	qfailed := 0
	for j := 0; j < nQueries; j++ {
		due := start.Add(time.Duration(j) * queryPeriod)
		time.Sleep(time.Until(due))
		q := liveQuery(rng, liveMix(rng), s.id, int(acked.Load())*liveM)
		q.op = 1<<40 | int64(j)
		fi := int(float64(j) * liveFrameRate / liveQueryRate) // batch due at the same time
		traced := stretch(fi)
		qlog.on = traced
		sent := time.Now()
		root := qlog.add("query", q.op, -1, due, due)
		i := qlog.add("http."+q.kind, q.op, root, sent, sent)
		a, err := e.qc.do(&q)
		qlog.close(i)
		qlog.close(root)
		if err != nil {
			qfailed++
			res.violate("query %d: %v", j, err)
			continue
		}
		queries = append(queries, q)
		answers = append(answers, a)
		qlate = append(qlate, sent.Sub(due))
	}
	qlog.on = false
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	mem1 := readMem()
	st1, cli1 := snapRegistry(e.stk.reg), snapRegistry(e.clientReg)

	// Output checks: acknowledged history queryable, every answer within
	// its bound of the raw samples; and the reconstruction error of the
	// sensor's whole history.
	var sse float64
	var count int
	s.checkHistory(e.stk.st, res, &sse, &count)
	truth := func(_ string, row, from, to int) []float64 { return sensorTruth(s, row, from, to) }
	var bounds []float64
	for i := range queries {
		if err := checkAnswer(&queries[i], answers[i], truth, e.stk.st); err != nil {
			qfailed++
			res.violate("%v", err)
		}
		if queries[i].bounded() {
			bounds = append(bounds, queries[i].sampleBound(answers[i]))
		}
	}
	failed := transportCounters(res, cli0, cli1, st0, st1)
	res.count(nFrames+nQueries, s.next-s.acked+failed+qfailed+(nFrames-len(frames)))

	var s2q, s2qTraced, late []float64
	for _, f := range frames {
		late = append(late, float64(f.late)/float64(time.Millisecond))
		if f.traced {
			s2qTraced = append(s2qTraced, float64(f.latency)/float64(time.Millisecond))
		} else {
			s2q = append(s2q, float64(f.latency)/float64(time.Millisecond))
		}
	}
	late = append(late, in(qlate, time.Millisecond)...)
	// How far behind its schedule the generator sent: a flush stall
	// delays the sensor's next batches, which their latency counts.
	fmt.Fprintf(os.Stderr, "e2ebench: generator lateness p99 %.2f ms over %d sends\n", pct(late, 0.99), len(late))
	samples := len(frames) * liveN * liveM
	res.e2e("throughput_per_s", "1/s", float64(samples)/sendEnd.Sub(start).Seconds())
	res.e2e("latency_p50_ms", "ms", median(s2q))
	res.e2e("recon_mse", "sq", sse/float64(count))
	res.e2e("wire_bytes_per_sample", "B", float64(s.wireBytes)/float64(s.next*liveN*liveM))
	if !cfg.trace {
		return e.teardown()
	}

	// Traced run. Lock waits and counters come from the registries.
	lockWaits(res, st0, st1, st0, st1)
	queryCounters(res, st0, st1, len(queries))
	res.layer("query.bound_width", "value", mean(bounds))
	// Replay the traced queries through the station's own entry points,
	// on the station as the run left it.
	tracedOps := qlog.ops()
	dlog := newSpanLog(qlog.t0)
	dlog.on = true
	api := httpapi.New(e.stk.st, httpapi.DefaultCacheEntries)
	for i := range queries {
		if !tracedOps[queries[i].op] {
			continue
		}
		if err := direct(e.stk.st, &queries[i], dlog); err != nil {
			return fmt.Errorf("replaying query %d: %w", i, err)
		}
		if err := serveDirect(api, &queries[i], dlog); err != nil {
			return fmt.Errorf("replaying query %d: %w", i, err)
		}
	}
	md := memBetween(mem0, mem1)
	if err := e.teardown(); err != nil {
		return err
	}
	replay := newSpanLog(qlog.t0)
	replay.on = true
	fr, err := replayFrames(cfg, filepath.Join(cfg.work, "replay"), []*sensorSide{s}, len(s.frames), len(s.frames), replay)
	if err != nil {
		return fmt.Errorf("replaying frames: %w", err)
	}
	if err := restarts(res, tracedRestarts, fr.dataDir, fr.id, fr.idx); err != nil {
		return err
	}
	ss := mergeSpans(s.log, qlog, dlog, replay)
	frameLayers(res, ss, fr)
	encodeCounters(res, cli0, cli1)
	queryLayers(res, ss)
	res.layer("runtime.alloc_bytes_per_op", "B", md.allocBytes/float64(samples))
	res.layer("runtime.gc_pause_ms", "ms", md.gcPauseMs)
	res.layer("wire.bytes_per_frame", "B", float64(s.wireBytes)/float64(s.next))
	fc, fw := ss.coverage("frame", encodeSpans, frameLayerTime(ss, true))
	qc, qw := ss.total("httpapi.handler"), ss.total("query")
	res.layer("trace.attributed_share", "ratio", ratio((fc+qc).Seconds(), (fw+qw).Seconds()))
	res.layer("trace.overhead_ratio", "ratio", ratio(median(s2qTraced), median(s2q)))
	return ss.write(cfg.spansOut)
}

// sensorTruth returns the raw samples [from, to) of one of s's quantities.
func sensorTruth(s *sensorSide, row, from, to int) []float64 {
	out := make([]float64, 0, to-from)
	data := s.data.Rows[row]
	for i := from; i < to; i++ {
		out = append(out, data[(i/s.m)%s.data.Files*s.m+i%s.m])
	}
	return out
}
