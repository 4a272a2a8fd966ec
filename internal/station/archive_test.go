package station

import (
	"fmt"
	"testing"

	"sbr/internal/core"
	"sbr/internal/segstore"
)

// newArchivedStation builds a station backed by a segment store in dir,
// with the in-memory window bounded to memChunks chunks.
func newArchivedStation(t *testing.T, cfg core.Config, dir string, memChunks, segChunks int) (*Station, *segstore.Store) {
	t.Helper()
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: segChunks})
	if err != nil {
		t.Fatal(err)
	}
	st.SetArchive(store, memChunks)
	return st, store
}

// feedFrames pushes frames through the transport receive path.
func feedFrames(t *testing.T, st *Station, id string, frames [][]byte) {
	t.Helper()
	for i, frame := range frames {
		if err := st.ReceiveFrameFrom(id, 1, frame); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

// compareStations asserts that every query kind answers byte-identically
// on both stations for the sensor's full recorded history.
func compareStations(t *testing.T, got, want *Station, id string) {
	t.Helper()
	total, err := want.HistoryLen(id)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := got.HistoryLen(id); err != nil || n != total {
		t.Fatalf("HistoryLen = %d (%v), want %d", n, err, total)
	}

	// Point and full-history reads.
	wh, err := want.History(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := got.History(id, 0)
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(gh) != len(wh) {
		t.Fatalf("History length %d, want %d", len(gh), len(wh))
	}
	for i := range wh {
		if gh[i] != wh[i] {
			t.Fatalf("History[%d] = %v, want %v", i, gh[i], wh[i])
		}
	}
	for _, idx := range []int{0, 1, total / 3, total / 2, total - 1} {
		gv, gb, gerr := got.AtWithBound(id, 0, idx)
		wv, wb, werr := want.AtWithBound(id, 0, idx)
		if gerr != nil || werr != nil || gv != wv || gb != wb {
			t.Fatalf("AtWithBound(%d) = (%v,%v,%v), want (%v,%v,%v)", idx, gv, gb, gerr, wv, wb, werr)
		}
	}

	// Range reads spanning the cold/hot boundary.
	for _, r := range [][2]int{{0, 16}, {7, total / 2}, {total - 20, total}, {0, total}} {
		gr, gerr := got.Range(id, 0, r[0], r[1])
		wr, werr := want.Range(id, 0, r[0], r[1])
		if gerr != nil || werr != nil || len(gr) != len(wr) {
			t.Fatalf("Range%v: (%v,%v) lengths %d vs %d", r, gerr, werr, len(gr), len(wr))
		}
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("Range%v[%d] = %v, want %v", r, i, gr[i], wr[i])
			}
		}
	}

	// Aggregates with error bounds, windowed queries, downsampling.
	for _, kind := range []AggregateKind{AggAvg, AggSum, AggMin, AggMax} {
		for _, r := range [][2]int{{0, total}, {5, total / 2}, {total - 30, total}} {
			gv, gb, gerr := got.AggregateWithBound(id, 0, r[0], r[1], kind)
			wv, wb, werr := want.AggregateWithBound(id, 0, r[0], r[1], kind)
			if gerr != nil || werr != nil || gv != wv || gb != wb {
				t.Fatalf("Aggregate kind %d %v = (%v,%v,%v), want (%v,%v,%v)",
					kind, r, gv, gb, gerr, wv, wb, werr)
			}
		}
	}
	grb, gerr := got.RangeBound(id, 0, total)
	wrb, werr := want.RangeBound(id, 0, total)
	if gerr != nil || werr != nil || grb != wrb {
		t.Fatalf("RangeBound = (%v,%v), want (%v,%v)", grb, gerr, wrb, werr)
	}
	gp, gerr := got.Run(Query{Sensor: id, Row: 0, Step: 32, Agg: AggMax})
	wp, werr := want.Run(Query{Sensor: id, Row: 0, Step: 32, Agg: AggMax})
	if gerr != nil || werr != nil || len(gp) != len(wp) {
		t.Fatalf("Run: (%v,%v) lengths %d vs %d", gerr, werr, len(gp), len(wp))
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("Run[%d] = %+v, want %+v", i, gp[i], wp[i])
		}
	}
	gd, gerr := got.Downsample(id, 0, 10)
	wd, werr := want.Downsample(id, 0, 10)
	if gerr != nil || werr != nil || len(gd) != len(wd) {
		t.Fatalf("Downsample: (%v,%v)", gerr, werr)
	}
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("Downsample[%d] = %v, want %v", i, gd[i], wd[i])
		}
	}
	ge, gerr := got.Exceedances(id, 0, 0, total, 1.5)
	we, werr := want.Exceedances(id, 0, 0, total, 1.5)
	if gerr != nil || werr != nil || len(ge) != len(we) {
		t.Fatalf("Exceedances: (%v,%v) lengths %d vs %d", gerr, werr, len(ge), len(we))
	}
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("Exceedances[%d] = %+v, want %+v", i, ge[i], we[i])
		}
	}
}

// TestColdQueriesBeyondMemoryWindow bounds the in-memory window far below
// the ingested history and verifies every query kind still answers
// byte-identically to an unbounded station — the cold path through the
// segment store is exercised for all early chunks.
func TestColdQueriesBeyondMemoryWindow(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 30, 16)

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)

	st, store := newArchivedStation(t, cfg, t.TempDir(), 5, 4)
	defer store.Close()
	feedFrames(t, st, "s", frames)

	// The window must actually have evicted: the cold path is the test.
	log := st.lookupLog("s")
	if log.first == 0 || len(log.chunks) > 5 {
		t.Fatalf("no eviction happened: first=%d window=%d", log.first, len(log.chunks))
	}
	compareStations(t, st, ref, "s")
}

// TestChaosStationCheckpointTailRecovery kills a station mid-stream (no
// Close, no final checkpoint) and recovers a fresh one from the archive:
// the checkpoint restores the first 12 chunks without decoding, the tail
// replays exactly the 8 records archived after it, and every query kind
// matches an uncrashed reference — then the stream continues seamlessly.
func TestChaosStationCheckpointTailRecovery(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 21, 16)
	dir := t.TempDir()

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames[:20])

	st, _ := newArchivedStation(t, cfg, dir, 6, 4)
	feedFrames(t, st, "s", frames[:12])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedFrames(t, st, "s", frames[12:20])
	// Crash: the station and store are abandoned with no Close.

	store2, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	st2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2.SetArchive(store2, 6)
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.FromCheckpoint {
		t.Error("recovery ignored the checkpoint")
	}
	if rec.Replayed != 8 {
		t.Errorf("replayed %d tail frames, want 8 (bounded tail, not full replay)", rec.Replayed)
	}
	if rec.Sensors != 1 {
		t.Errorf("recovered %d sensors, want 1", rec.Sensors)
	}
	compareStations(t, st2, ref, "s")

	// The decoder replica came back exact: the next live frame decodes.
	feedFrames(t, st2, "s", frames[20:])
	feedFrames(t, ref, "s", frames[20:])
	compareStations(t, st2, ref, "s")
}

// TestStationRecoverWithoutCheckpoint degrades gracefully: no checkpoint
// on disk means the whole archive replays through the receive path.
func TestStationRecoverWithoutCheckpoint(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 9, 16)
	dir := t.TempDir()

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)

	st, _ := newArchivedStation(t, cfg, dir, 4, 3)
	feedFrames(t, st, "s", frames)
	// Crash with no checkpoint ever written.

	st2, store2 := newArchivedStation(t, cfg, dir, 4, 3)
	defer store2.Close()
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.FromCheckpoint {
		t.Error("FromCheckpoint true with no checkpoint on disk")
	}
	if rec.Replayed != len(frames) {
		t.Errorf("replayed %d frames, want the full archive (%d)", rec.Replayed, len(frames))
	}
	compareStations(t, st2, ref, "s")
}

// TestStationGracefulShutdownRecovery is the stationd shutdown path: final
// checkpoint, store closed (sealing the active segment). Reopening must
// recover purely from the checkpoint — zero frames replayed.
func TestStationGracefulShutdownRecovery(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 10, 16)
	dir := t.TempDir()

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)

	st, store := newArchivedStation(t, cfg, dir, 4, 4)
	feedFrames(t, st, "s", frames)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	st2, store2 := newArchivedStation(t, cfg, dir, 4, 4)
	defer store2.Close()
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.FromCheckpoint || rec.Replayed != 0 {
		t.Errorf("graceful restart: FromCheckpoint=%v Replayed=%d, want true/0",
			rec.FromCheckpoint, rec.Replayed)
	}
	compareStations(t, st2, ref, "s")
}

// TestArchiveDegradedMode: when the store stops accepting appends the
// station must keep serving from memory — nothing non-durable is evicted.
func TestArchiveDegradedMode(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 12, 16)

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)

	st, store := newArchivedStation(t, cfg, t.TempDir(), 3, 4)
	feedFrames(t, st, "s", frames[:4])
	// Kill the store under the station: every later append fails.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	feedFrames(t, st, "s", frames[4:])

	log := st.lookupLog("s")
	if !log.archDown {
		t.Fatal("store failure did not trip degraded mode")
	}
	if log.first != log.archived {
		t.Errorf("eviction passed the durable watermark: first=%d archived=%d", log.first, log.archived)
	}
	compareStations(t, st, ref, "s")
}

// TestExceedancesLoadOnlyOverlappedSegments checks that the library's
// threshold scan reads its window through the range path: over windows
// inside one segment, across segment and cold/hot boundaries, with to == 0
// and empty, it answers what ScanExceedances answers over an unbounded
// reference's full history, and a window inside one sealed segment loads
// that segment alone. (The HTTP differential test in internal/httpapi
// covers RangeWindow's values, bounds and errors.)
func TestExceedancesLoadOnlyOverlappedSegments(t *testing.T) {
	cfg := restoreConfig()
	const m, segChunks, memChunks, n = 16, 4, 5, 30
	frames := encodeTestFrames(t, cfg, n, m)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)
	st, store := newArchivedStation(t, cfg, t.TempDir(), memChunks, segChunks)
	defer store.Close()
	feedFrames(t, st, "s", frames)

	seg := segChunks * m
	before := store.StoreStats().ColdReads
	if _, err := st.Exceedances("s", 0, seg+3, 2*seg-1, 1.2); err != nil {
		t.Fatal(err)
	}
	if got := store.StoreStats().ColdReads - before; got != 1 {
		t.Fatalf("scan inside one sealed segment made %d cold segment loads, want 1", got)
	}

	hist, err := ref.History("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := (n - memChunks) * m
	for _, w := range [][2]int{
		{seg + 3, 2*seg - 1}, {seg - 4, seg + 4}, {hot - 9, hot + 9}, {hot, len(hist)},
		{0, 0}, {37, 0}, {len(hist), 0}, {50, 50}, {9, 8}, {5, len(hist) + 1},
	} {
		got, gerr := st.Exceedances("s", 0, w[0], w[1], 1.2)
		want, werr := ScanExceedances(hist, w[0], w[1], 1.2)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || len(got) != len(want) {
			t.Fatalf("Exceedances%v = %d runs (%v), want %d runs (%v)", w, len(got), gerr, len(want), werr)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Exceedances%v[%d] = %+v, want %+v", w, i, got[i], want[i])
			}
		}
	}
}
