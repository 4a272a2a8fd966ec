package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/outbox"
	"sbr/internal/segstore"
	"sbr/internal/station"
	"sbr/internal/wire"
)

// frameReplay is what replaying a run's frames through the lower layers
// leaves for the per-layer metrics.
type frameReplay struct {
	stk0, stk1    regSnap // the replay stack's registry before and after
	cli0, cli1    regSnap // the replay clients' registry before and after
	dataDir       string  // the replay stack's data, for the restarts
	id            string  // a replayed sensor and its newest sample,
	idx           int     // the first query after each restart
	storedBytes   float64 // archive bytes of the durable station
	storedSamples float64 // raw samples it archived
}

// replayFrames pushes the sensors' recorded frames, in the order each
// sensor produced them, through the lower layers' own entry points, so a
// traced run can split the time ReliableClient.Send and Flush hide. The
// first memLimit frames of each sensor go to Station.ReceiveFrame on a
// memory-only station. The first durLimit also go to outbox Append and
// Ack on a fresh outbox, to Station.ReceiveFrame on a durable station at
// stationd's defaults, and through Send and Flush of a ReliableClient
// without outbox into a fresh durable stack, one flush per frame. Every
// workload replays its frames this way, whichever layers its own timed
// phase used.
func replayFrames(cfg *config, dir string, sensors []*sensorSide, memLimit, durLimit int, log *spanLog) (*frameReplay, error) {
	mem, err := station.New(stationCfg)
	if err != nil {
		return nil, err
	}
	durable, err := station.New(stationCfg)
	if err != nil {
		return nil, err
	}
	seg, err := segstore.Open(segstore.Options{Dir: filepath.Join(dir, "replay-station"), Config: stationCfg})
	if err != nil {
		return nil, err
	}
	defer seg.Close()
	durable.SetArchive(seg, memChunks)

	fr := &frameReplay{dataDir: filepath.Join(dir, "replay-stack")}
	stk, err := startStack(fr.dataDir, cfg.log)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stk.shutdown(false) //nolint:errcheck — already failing
		}
	}()
	cliReg := obs.NewRegistry()
	netMet := netio.NewMetrics(cliReg)
	obMet := outbox.NewMetrics(obs.NewRegistry())
	boxes := make([]*outbox.Outbox, len(sensors))
	clients := make([]*netio.ReliableClient, len(sensors))
	for i, s := range sensors {
		ob, err := outbox.Open(filepath.Join(dir, "replay-"+s.id+".outbox"), outbox.Options{Sensor: s.id, Metrics: obMet})
		if err != nil {
			return nil, err
		}
		defer ob.Close()
		boxes[i] = ob
		rc, err := netio.NewReliable(stk.srv.Addr(), s.id, netio.ReliableOptions{Metrics: netMet, Logger: cfg.log})
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		clients[i] = rc
	}

	n := 0
	for _, s := range sensors {
		n = max(n, min(len(s.frames), memLimit))
	}
	fr.stk0, fr.cli0 = snapRegistry(stk.reg), snapRegistry(cliReg)
	for k := 0; k < n; k++ {
		for i, s := range sensors {
			if k >= len(s.frames) || k >= memLimit {
				continue
			}
			frame, op := s.frames[k], s.opID(k)
			t := time.Now()
			if err := mem.ReceiveFrame(s.id, frame); err != nil {
				return nil, fmt.Errorf("replay %s batch %d (memory): %w", s.id, k, err)
			}
			log.add("station.receive.mem", op, -1, t, time.Now())
			if k >= durLimit {
				continue
			}

			seq, err := wire.FrameSeq(frame)
			if err != nil {
				return nil, err
			}
			t = time.Now()
			if err := boxes[i].Append(seq, frame); err != nil {
				return nil, err
			}
			log.add("outbox.append", op, -1, t, time.Now())
			compactions := obMet.Compactions.Value()
			t = time.Now()
			if err := boxes[i].Ack(seq); err != nil {
				return nil, err
			}
			name := "outbox.ack"
			if obMet.Compactions.Value() > compactions {
				name = "outbox.compact"
			}
			log.add(name, op, -1, t, time.Now())

			sealed := seg.StoreStats().SealedSegments
			t = time.Now()
			if err := durable.ReceiveFrame(s.id, frame); err != nil {
				return nil, fmt.Errorf("replay %s batch %d (durable): %w", s.id, k, err)
			}
			name = "station.receive.durable"
			if seg.StoreStats().SealedSegments > sealed {
				name = "station.receive.seal"
			}
			log.add(name, op, -1, t, time.Now())
			fr.storedSamples += float64(s.n * s.m)

			t = time.Now()
			if err := clients[i].Send(frame); err != nil {
				return nil, fmt.Errorf("replay %s batch %d: send: %w", s.id, k, err)
			}
			sent := time.Now()
			if err := clients[i].Flush(); err != nil {
				return nil, fmt.Errorf("replay %s batch %d: flush: %w", s.id, k, err)
			}
			log.add("replay.netio.send", op, -1, t, sent)
			log.add("replay.netio.flush", op, -1, sent, time.Now())
			fr.id, fr.idx = s.id, (k+1)*s.m-1
		}
	}
	fr.stk1, fr.cli1 = snapRegistry(stk.reg), snapRegistry(cliReg)
	fr.storedBytes = float64(seg.StoreStats().Bytes)
	for _, rc := range clients {
		if err := rc.Close(); err != nil {
			return nil, err
		}
	}
	// No final checkpoint: the restarts recover every replayed frame.
	stopped = true
	if err := stk.shutdown(false); err != nil {
		return nil, err
	}
	return fr, nil
}

// encodeSpans are the calls a sensor makes before its client: the
// generator times them itself.
var encodeSpans = []string{"core.encode", "wire.encode"}

// frameLayerTime is, per frame op, the replayed time of the layers below
// the client: with durable the outbox append and ack and the receive on
// a durable station (which includes the segstore append), otherwise the
// receive on a memory-only station. Whatever else Send and Flush spend
// (netio's own work, waiting) is attributed to no layer.
func frameLayerTime(ss *spanSet, durable bool) map[int64]time.Duration {
	if durable {
		return ss.perOp("outbox.append", "outbox.ack", "outbox.compact", "station.receive.durable", "station.receive.seal")
	}
	return ss.perOp("station.receive.mem")
}

// preferred returns the spans named name, or those named fallback when
// the run made no call of the first kind.
func preferred(ss *spanSet, name, fallback string) string {
	if len(ss.durations(name)) > 0 {
		return name
	}
	return fallback
}

// frameLayers derives the per-layer metrics of the ingest path from a
// traced run's spans (the generator's own calls and the frame replay)
// and the replay's registries. netio's send and acknowledgement times
// are the workload's own per-frame calls where it makes them, else the
// replay's.
func frameLayers(res *result, ss *spanSet, fr *frameReplay) {
	ms, us := time.Millisecond, time.Microsecond
	enc := in(ss.durations("core.encode"), ms)
	res.layer("core.encode_ms_p50", "ms", median(enc))
	res.layer("core.encode_ms_p99", "ms", pct(enc, 0.99))
	res.layer("core.base_hit_ratio", "ratio",
		ratio(delta(fr.stk0, fr.stk1, "sbr_core_base_hits_total"), delta(fr.stk0, fr.stk1, "sbr_core_intervals_total")))
	res.layer("wire.encode_us_p50", "us", median(in(ss.durations("wire.encode"), us)))
	recv := in(ss.durations("station.receive.mem"), us)
	res.layer("station.receive_us_p50", "us", median(recv))
	res.layer("station.receive_us_p99", "us", pct(recv, 0.99))
	appendUs := in(ss.durations("outbox.append"), us)
	res.layer("outbox.append_us_p50", "us", median(appendUs))
	res.layer("outbox.append_us_p99", "us", pct(appendUs, 0.99))
	res.layer("outbox.compact_ms_p50", "ms", median(in(ss.durations("outbox.compact"), ms)))
	res.layer("segstore.bytes_per_sample", "B", ratio(fr.storedBytes, fr.storedSamples))

	// segstore's share of a durable receive: the same frame's receive on
	// the durable station minus on the memory-only one.
	memBy := ss.byOp("station.receive.mem")
	selfTime := func(name string, unit time.Duration) []float64 {
		var out []float64
		for op, d := range ss.byOp(name) {
			if m, ok := memBy[op]; ok {
				out = append(out, float64(d-m)/float64(unit))
			}
		}
		return out
	}
	res.layer("segstore.append_us_p50", "us", median(selfTime("station.receive.durable", us)))
	res.layer("segstore.seal_ms_p50", "ms", median(selfTime("station.receive.seal", ms)))

	send := in(ss.durations(preferred(ss, "netio.send", "replay.netio.send")), ms)
	res.layer("netio.send_ms_p50", "ms", median(send))
	res.layer("netio.send_ms_p99", "ms", pct(send, 0.99))
	flush := preferred(ss, "netio.flush", "replay.netio.flush")
	ack := in(ss.durations(flush), ms)
	res.layer("netio.ack_ms_p50", "ms", median(ack))
	res.layer("netio.ack_ms_p99", "ms", pct(ack, 0.99))
	// netio's own share of an acknowledgement: the flush minus the
	// receive of the same frame on a durable station, which includes the
	// station's decode and the segstore append.
	durable := ss.byOp("station.receive.durable")
	for op, d := range ss.byOp("station.receive.seal") {
		durable[op] = d
	}
	var self []float64
	for op, d := range ss.byOp(flush) {
		if dd, ok := durable[op]; ok {
			self = append(self, float64(d-dd)/float64(us))
		}
	}
	res.layer("netio.self_us_p50", "us", median(self))
}

// encodeCounters reports the encoder's registry counters over a phase.
func encodeCounters(res *result, cli0, cli1 regSnap) {
	res.layer("core.search_evals_per_batch", "count",
		ratio(delta(cli0, cli1, "sbr_encode_search_evals_total"), delta(cli0, cli1, "sbr_encode_total")))
	hits := delta(cli0, cli1, "sbr_encode_cache_hits_total")
	res.layer("core.scan_cache_hit_ratio", "ratio",
		ratio(hits, hits+delta(cli0, cli1, "sbr_encode_cache_misses_total")))
}

// transportCounters reports retries (client side) and sheds (station side)
// over a phase, and returns rejected plus shed frames for the failure count.
func transportCounters(res *result, cli0, cli1, st0, st1 regSnap) int {
	res.layer("netio.retries", "count", delta(cli0, cli1, "sbr_netio_retries_total"))
	var shed, rejected float64
	for name := range st1.vals {
		switch {
		case strings.HasPrefix(name, "sbr_netio_shed_total{"):
			shed += delta(st0, st1, name)
		case strings.HasPrefix(name, "sbr_netio_frames_rejected_total{"):
			rejected += delta(st0, st1, name)
		}
	}
	res.layer("netio.shed", "count", shed)
	return int(math.Round(shed + rejected))
}

// lockWaits reports the p99 of the station's ingest lock waits between
// ingest0 and ingest1 and of its query lock waits between query0 and
// query1: the phases in which the run ingested and queried.
func lockWaits(res *result, ingest0, ingest1, query0, query1 regSnap) {
	res.layer("station.ingest_lock_wait_us_p99", "us", 1e6*histDelta(ingest0, ingest1, "sbr_station_ingest_lock_wait_seconds", 0.99))
	res.layer("station.query_lock_wait_us_p99", "us", 1e6*histDelta(query0, query1, "sbr_station_query_lock_wait_seconds", 0.99))
}

// tracedRestarts is how many restarts a traced run times.
const tracedRestarts = 5

// restarts restarts a station on dataDir n times, the way stationd
// boots: segstore.Open, station.New, SetArchive, Recover, until a first
// query (sample idx of sensor id) answers. It reports the median open
// and recover times, the frames each recovery replayed and the time of a
// checkpoint on the last restarted station.
func restarts(res *result, n int, dataDir, id string, idx int) error {
	var open, recover []float64
	var replayed int
	var last *station.Station
	var lastSeg *segstore.Store
	for r := 0; r < n; r++ {
		if lastSeg != nil {
			if err := lastSeg.Close(); err != nil {
				return err
			}
		}
		t := time.Now()
		seg, err := segstore.Open(segstore.Options{Dir: dataDir, Config: stationCfg})
		if err != nil {
			return err
		}
		tOpen := time.Now()
		st, err := station.New(stationCfg)
		if err != nil {
			return err
		}
		st.Instrument(obs.NewRegistry())
		seg.Instrument(obs.NewRegistry())
		st.SetArchive(seg, memChunks)
		rs, err := st.Recover()
		if err != nil {
			return err
		}
		tRec := time.Now()
		if _, _, err := st.AtWithBound(id, 0, idx); err != nil {
			return fmt.Errorf("first query after restart: %w", err)
		}
		open = append(open, float64(tOpen.Sub(t))/float64(time.Millisecond))
		recover = append(recover, float64(tRec.Sub(tOpen))/float64(time.Millisecond))
		replayed = rs.Replayed
		last, lastSeg = st, seg
	}
	res.layer("segstore.open_ms", "ms", median(open))
	res.layer("station.recover_ms", "ms", median(recover))
	res.layer("station.replayed_frames", "count", float64(replayed))
	t := time.Now()
	if err := last.Checkpoint(); err != nil {
		return err
	}
	res.layer("segstore.checkpoint_ms", "ms", float64(time.Since(t))/float64(time.Millisecond))
	return lastSeg.Close()
}

// Probe queries: the closed-loop ingest workloads run no queries of their
// own, so their traced runs send this many seeded queries over one HTTP
// connection after the timed phase, on windows of probeWindow samples.
const (
	probeQueries = 100
	probeWindow  = 1024
)

// probeList draws the probe queries: every endpoint equally often, on a
// uniform sensor, quantity and window of the sensors' acknowledged
// history.
func probeList(seed int64, sensors []*sensorSide) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x9b0be))
	kinds := []string{"point", "range", "aggregate", "downsample", "exceedances"}
	out := make([]query, probeQueries)
	for j := range out {
		s := sensors[rng.Intn(len(sensors))]
		h := s.acked * s.m
		w := min(probeWindow, h)
		lo := rng.Intn(h - w + 1)
		q := query{op: 3<<40 | int64(j), kind: kinds[j%len(kinds)], sensor: s.id, row: rng.Intn(s.n)}
		switch q.kind {
		case "point":
			q.idx = lo + rng.Intn(w)
		case "range":
			q.from, q.to = lo, lo+w
		case "aggregate":
			q.from, q.to = lo, lo+w
			q.agg = []string{"avg", "sum", "min", "max"}[rng.Intn(4)]
		case "downsample":
			q.points = 256
		case "exceedances":
			q.from, q.to = lo, lo+w
			v := sensorTruth(s, q.row, lo, lo+w)
			sort.Float64s(v)
			q.threshold = v[len(v)*9/10]
		}
		out[j] = q
	}
	return out
}
