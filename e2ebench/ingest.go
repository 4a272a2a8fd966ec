package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/outbox"
	"sbr/internal/segstore"
)

// Closed-loop ingest shape: two sensors, each on its own connection,
// sending paper-shaped weather batches (6 quantities × 256 samples, SSE).
const (
	ingestSensors = 2
	ingestN       = 6
	ingestM       = 256
)

// ingestEnv is the set-up of a closed-loop ingest workload.
type ingestEnv struct {
	dir       string
	durable   bool
	files     int
	t0        time.Time
	stk       *stack
	sensors   []*sensorSide
	clientReg *obs.Registry // the sensors' own registry: encoder, outbox, client transport

	// Totals of stacks and sensors a restart already replaced.
	retired map[string]float64 // station registry values
	past    sensorTotals
}

// sensorTotals counts what sensors produced and had acknowledged.
type sensorTotals struct{ attempted, acked, wireBytes, rawSamples int }

// newIngestEnv starts a stack (durable or memory only) and connects
// fresh sensors to it, with durable outboxes when durable.
func newIngestEnv(cfg *config, dir string, durable bool, files int, t0 time.Time) (*ingestEnv, error) {
	e := &ingestEnv{dir: dir, durable: durable, files: files, t0: t0,
		clientReg: obs.NewRegistry(), retired: map[string]float64{}}
	return e, e.start(cfg, nil)
}

// start brings up a stack and the sensors; logs, when given, are the span
// logs the sensors carry over from a previous start.
func (e *ingestEnv) start(cfg *config, logs []*spanLog) error {
	dataDir := ""
	if e.durable {
		dataDir = filepath.Join(e.dir, "station")
	}
	var err error
	if e.stk, err = startStack(dataDir, cfg.log); err != nil {
		return err
	}
	netMet := netio.NewMetrics(e.clientReg)
	obMet := outbox.NewMetrics(e.clientReg)
	e.sensors = e.sensors[:0]
	for i := 0; i < ingestSensors; i++ {
		s, err := newSensorSide(i, cfg.seed, ingestN, ingestM, e.files, metrics.SSE, e.t0)
		if err != nil {
			return err
		}
		if logs != nil {
			s.log = logs[i]
		}
		s.comp.Instrument(e.clientReg)
		s.keep = cfg.trace
		obPath := ""
		if e.durable {
			obPath = filepath.Join(e.dir, s.id+".outbox")
		}
		if err := s.connect(e.stk.srv.Addr(), obPath, netMet, obMet, cfg.log); err != nil {
			return err
		}
		e.sensors = append(e.sensors, s)
	}
	return nil
}

// restart replaces the stack and the sensors with fresh ones, as a
// stationd restart with rebooted sensors would, keeping the totals.
func (e *ingestEnv) restart(cfg *config) error {
	e.past = e.totals()
	logs := make([]*spanLog, len(e.sensors))
	for i, s := range e.sensors {
		logs[i] = s.log
	}
	if err := e.closeClients(); err != nil {
		return err
	}
	for k, v := range e.stk.reg.Values() {
		e.retired[k] += v
	}
	if err := e.stk.close(); err != nil {
		return err
	}
	return e.start(cfg, logs)
}

// totals adds the current sensors' counts to those of replaced ones.
func (e *ingestEnv) totals() sensorTotals {
	t := e.past
	for _, s := range e.sensors {
		t.attempted += s.next
		t.acked += s.acked
		t.wireBytes += s.wireBytes
		t.rawSamples += s.next * s.n * s.m
	}
	return t
}

// stationSnap snapshots the station registry, counting replaced stacks.
func (e *ingestEnv) stationSnap() regSnap {
	s := snapRegistry(e.stk.reg)
	for k, v := range e.retired {
		s.vals[k] += v
	}
	return s
}

// closeClients disconnects every sensor. Frames a client still held are
// counted as failed by the caller (attempted minus acknowledged).
func (e *ingestEnv) closeClients() error {
	var err error
	for _, s := range e.sensors {
		if _, cerr := s.disconnect(); err == nil {
			err = cerr
		}
	}
	return err
}

func (e *ingestEnv) teardown() error {
	err := e.closeClients()
	if serr := e.stk.close(); err == nil {
		err = serr
	}
	return err
}

// closedRound runs one round on every sensor at once and returns its wall
// time, the raw samples it delivered and the latency of every batch.
func closedRound(sensors []*sensorSide, frames int, traced bool) (time.Duration, int, []time.Duration, error) {
	errs := make([]error, len(sensors))
	lats := make([][]time.Duration, len(sensors))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range sensors {
		s.log.on = traced
		wg.Add(1)
		go func(i int, s *sensorSide) {
			defer wg.Done()
			lats[i], errs[i] = s.round(frames)
		}(i, s)
	}
	wg.Wait()
	wall := time.Since(start)
	samples := 0
	var lat []time.Duration
	for i, s := range sensors {
		samples += frames * s.n * s.m
		lat = append(lat, lats[i]...)
		s.log.on = false
	}
	return wall, samples, lat, errors.Join(errs...)
}

// rates totals the work and wall time of timed rounds, split by whether
// the round was traced: a traced run alternates traced and untraced
// rounds, so the ratio of their rates is the tracing overhead.
type rates struct {
	work, tracedWork float64
	wall, tracedWall time.Duration
}

func (r *rates) add(traced bool, work float64, wall time.Duration) {
	if traced {
		r.tracedWork += work
		r.tracedWall += wall
	} else {
		r.work += work
		r.wall += wall
	}
}

// rate is the untraced work per second; overhead is the untraced rate
// over the traced one.
func (r *rates) rate() float64     { return r.work / r.wall.Seconds() }
func (r *rates) overhead() float64 { return ratio(r.rate(), r.tracedWork/r.tracedWall.Seconds()) }

// minRounds is the fewest timed rounds a run makes, however slow.
const minRounds = 3

// encodeReplay is how many frames per sensor an encode_stream traced run
// replays through the durable layers it does not use itself.
const encodeReplay = 128

// durableWarmup is how many batches per sensor durable_ingest's set-up
// sends.
const durableWarmup = 8

// durableRound is how many batches a durable_ingest sensor sends before
// it flushes.
const durableRound = 8

// runDurableIngest is the production durable configuration under a
// closed loop: outbox on, fsync on, segstore at stationd's defaults.
// Each sensor flushes every durableRound batches. A cycle of rounds sends
// one segment's worth of batches per sensor, so every cycle holds exactly
// one outbox compaction and one segment seal per sensor, in the same
// round of it; the timed phase ends on a whole cycle, and
// throughput_per_s is the untraced rounds' samples over their total time.
func runDurableIngest(cfg *config, res *result) error {
	t0 := time.Now()
	cycleFrames := cfg.scaled(segstore.DefaultSegmentChunks, 4)
	frames := min(durableRound, cycleFrames)
	files := cfg.scaled(2048, 16)
	build := func(dir string) (*ingestEnv, error) {
		e, err := newIngestEnv(cfg, dir, true, files, t0)
		if err != nil {
			return nil, err
		}
		// Warm-up: connections, first records and the first outbox and
		// segment files. It stays short of the 64th batch, so the set-up
		// holds no compaction or seal, whose renames would set its time;
		// each timed round still holds exactly one of each per sensor.
		_, _, _, err = closedRound(e.sensors, durableWarmup, false)
		return e, err
	}
	e, err := repeatSetup(cfg, res, quickSetupRepeats, build, (*ingestEnv).teardown)
	if err != nil {
		return err
	}
	// A traced run replays the warm-up and the first four cycles through
	// every layer: the second and fourth were traced.
	replay := durableWarmup + 4*cycleFrames
	return ingestPhase(cfg, res, e, cycleFrames/frames, replay, replay, func(e *ingestEnv, traced bool) (time.Duration, int, []time.Duration, error) {
		return closedRound(e.sensors, frames, traced)
	}, nil)
}

// runEncodeStream is stationd's default memory-only configuration fed by
// sensors without an outbox, as sensorsim runs by default: the encoder
// does most of the work. A memory-only station keeps every decoded sample,
// so each round runs against a fresh stack (a stationd restart, outside
// the timed part) to bound memory; sensors restart from batch 0.
func runEncodeStream(cfg *config, res *result) error {
	t0 := time.Now()
	frames := cfg.scaled(1024, 8)
	build := func(dir string) (*ingestEnv, error) {
		e, err := newIngestEnv(cfg, dir, false, frames, t0)
		if err != nil {
			return nil, err
		}
		_, _, _, err = closedRound(e.sensors, frames, false)
		return e, err
	}
	e, err := repeatSetup(cfg, res, quickSetupRepeats, build, (*ingestEnv).teardown)
	if err != nil {
		return err
	}
	var sse float64
	var count int
	rounds := 0
	round := func(e *ingestEnv, traced bool) (time.Duration, int, []time.Duration, error) {
		// Check the previous round's station, then restart. Every round
		// sends the same batches through fresh compressors, so the
		// reconstruction error is taken once here and once at the end.
		for _, s := range e.sensors {
			if rounds == 0 {
				s.checkHistory(e.stk.st, res, &sse, &count)
			} else {
				s.checkHistory(e.stk.st, res, nil, nil)
			}
		}
		rounds++
		if err := e.restart(cfg); err != nil {
			return 0, 0, nil, err
		}
		runtime.GC()
		return closedRound(e.sensors, frames, traced)
	}
	// Every round sends the same frames: a traced run replays one round
	// through the memory-only station it ran against, and the round's
	// first encodeReplay frames through the durable layers too.
	return ingestPhase(cfg, res, e, 1, frames, min(frames, encodeReplay), round, func() (float64, int) { return sse, count })
}

// ingestPhase runs the timed rounds of a closed-loop ingest workload, in
// whole cycles of cycle rounds, checks the outputs and reports the
// metrics. Cycles alternate traced and untraced in a traced run, which
// also sends the
// probe queries and replays the first memReplay frames of each sensor
// through a memory-only station and the first durReplay through the
// durable layers. checked, when not nil, returns the squared error and
// sample count of rounds already checked.
func ingestPhase(cfg *config, res *result, e *ingestEnv, cycle, memReplay, durReplay int,
	round func(e *ingestEnv, traced bool) (time.Duration, int, []time.Duration, error),
	checked func() (float64, int)) error {

	var r rates
	var lat []float64
	cli0, st0 := snapRegistry(e.clientReg), e.stationSnap()
	mem0 := readMem()
	var measured time.Duration
	samples := 0
	for n := 0; measured < cfg.timed() || n < minRounds*cycle || n%cycle != 0; n++ {
		traced := cfg.trace && (n/cycle)%2 == 1
		wall, s, l, err := round(e, traced)
		if err != nil {
			return err
		}
		measured += wall
		samples += s
		r.add(traced, float64(s), wall)
		if !traced {
			lat = append(lat, in(l, time.Millisecond)...)
		}
	}
	mem1 := readMem()
	cli1, st1 := snapRegistry(e.clientReg), e.stationSnap()

	// Output checks: every acknowledged frame queryable, and the
	// reconstruction error against the raw samples.
	var sse float64
	var count int
	if checked != nil {
		sse, count = checked()
	}
	for _, s := range e.sensors {
		s.checkHistory(e.stk.st, res, &sse, &count)
	}
	tot := e.totals()
	failed := transportCounters(res, cli0, cli1, st0, st1)
	res.count(tot.attempted, tot.attempted-tot.acked+failed)
	res.e2e("throughput_per_s", "1/s", r.rate())
	res.e2e("latency_p50_ms", "ms", median(lat))
	res.e2e("recon_mse", "sq", sse/float64(count))
	res.e2e("wire_bytes_per_sample", "B", float64(tot.wireBytes)/float64(tot.rawSamples))

	if err := e.closeClients(); err != nil {
		return err
	}
	if !cfg.trace {
		return e.teardown()
	}

	// Traced run: the probe queries on the run's own stack, then a replay
	// of the recorded frames through the lower layers and restarts of the
	// replay's durable stack.
	qlog := newSpanLog(e.t0)
	q0, q1, err := e.probe(cfg, res, qlog)
	if err != nil {
		return err
	}
	if err := e.teardown(); err != nil {
		return err
	}
	rlog := newSpanLog(e.t0)
	rlog.on = true
	fr, err := replayFrames(cfg, filepath.Join(cfg.work, "replay"), e.sensors, memReplay, durReplay, rlog)
	if err != nil {
		return fmt.Errorf("replaying frames: %w", err)
	}
	if err := restarts(res, tracedRestarts, fr.dataDir, fr.id, fr.idx); err != nil {
		return err
	}
	logs := []*spanLog{rlog, qlog}
	for _, s := range e.sensors {
		logs = append(logs, s.log)
	}
	ss := mergeSpans(logs...)
	frameLayers(res, ss, fr)
	encodeCounters(res, cli0, cli1)
	queryLayers(res, ss)
	// A memory-only run restarts its stack every round: its ingest lock
	// waits are those of the last round's stack, from its start.
	ing0 := st0
	if !e.durable {
		ing0 = regSnap{}
	}
	lockWaits(res, ing0, st1, q0, q1)
	res.layer("wire.bytes_per_frame", "B", float64(tot.wireBytes)/float64(tot.attempted))
	md := memBetween(mem0, mem1)
	res.layer("runtime.alloc_bytes_per_op", "B", md.allocBytes/float64(samples))
	res.layer("runtime.gc_pause_ms", "ms", md.gcPauseMs)
	covered, wall := ss.coverage("round", encodeSpans, frameLayerTime(ss, e.durable))
	res.layer("trace.attributed_share", "ratio", ratio(covered.Seconds(), wall.Seconds()))
	res.layer("trace.overhead_ratio", "ratio", r.overhead())
	return ss.write(cfg.spansOut)
}

// probe sends the probe queries over one HTTP connection to the run's
// own stack, reports the read path's counters, and replays each query
// through the station's entry points and the query API's handler. It
// returns the station registry before and after the HTTP queries. A
// query fails on an error or a non-200 answer; the answers are not held
// against the raw samples, as these SSE sensors report no max-abs bound
// (the history and recon_mse checks cover their reconstruction).
func (e *ingestEnv) probe(cfg *config, res *result, log *spanLog) (regSnap, regSnap, error) {
	queries := probeList(cfg.seed, e.sensors)
	qc := newQueryClient(e.stk.httpURL)
	defer qc.close()
	log.on = true
	defer func() { log.on = false }()
	a0 := snapRegistry(e.stk.reg)
	var bounds []float64
	failed := 0
	for i := range queries {
		q := &queries[i]
		root := log.open("query", q.op, -1)
		sp := log.open("http."+q.kind, q.op, root)
		a, err := qc.do(q)
		log.close(sp)
		log.close(root)
		if err != nil {
			failed++
			res.violate("probe query %d: %v", i, err)
			continue
		}
		if q.bounded() {
			bounds = append(bounds, q.sampleBound(a))
		}
	}
	a1 := snapRegistry(e.stk.reg)
	res.count(len(queries), failed)
	queryCounters(res, a0, a1, len(queries))
	res.layer("query.bound_width", "value", mean(bounds))
	api := httpapi.New(e.stk.st, httpapi.DefaultCacheEntries)
	for i := range queries {
		if err := direct(e.stk.st, &queries[i], log); err != nil {
			return a0, a1, fmt.Errorf("replaying probe query %d: %w", i, err)
		}
		if err := serveDirect(api, &queries[i], log); err != nil {
			return a0, a1, fmt.Errorf("replaying probe query %d: %w", i, err)
		}
	}
	return a0, a1, nil
}
