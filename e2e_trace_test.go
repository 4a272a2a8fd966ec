package sbr

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sbr/internal/core"
	"sbr/internal/faultnet"
	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/segstore"
	"sbr/internal/sensornet"
	"sbr/internal/station"
)

// stageCount flattens a span tree into stage → occurrence counts.
func stageCount(tree []*trace.SpanView) map[string]int {
	out := map[string]int{}
	var walk func(vs []*trace.SpanView)
	walk = func(vs []*trace.SpanView) {
		for _, v := range vs {
			out[v.Stage]++
			walk(v.Children)
		}
	}
	walk(tree)
	return out
}

// findStages returns every span with the given stage, depth-first.
func findStages(tree []*trace.SpanView, stage string) []*trace.SpanView {
	var out []*trace.SpanView
	for _, v := range tree {
		if v.Stage == stage {
			out = append(out, v)
		}
		out = append(out, findStages(v.Children, stage)...)
	}
	return out
}

// TestEndToEndTracing is the acceptance proof for wire-propagated tracing:
// simulated sensors encode batches (trace born at encode), the frames ride
// a reliable uplink through a fault injector that forces retransmissions,
// a trace-aware netio server feeds a segment-store-backed station, and an
// HTTP query later joins the same trace via the X-Sbr-Trace header. One
// frame must come out as ONE trace whose span tree covers every stage —
// encode, transport send/receive, station receive, archive append, query —
// with the parent/child links the pipeline implies.
func TestEndToEndTracing(t *testing.T) {
	const (
		quantities = 2
		batchLen   = 64
		batches    = 8
		nodes      = 2
	)
	cfg := core.Config{
		TotalBand: quantities * batchLen / 8,
		MBase:     quantities * batchLen / 8,
		Metric:    metrics.SSE,
	}

	// One recorder spans the whole in-process deployment: sensor-side
	// births, transport spans, and station-side continuations all join on
	// the wire-propagated ID.
	rec := trace.NewRecorder(trace.Options{SampleEvery: 1, Capacity: 256, MaxInflight: 256})

	// The simulated field. Every encoded frame is traced (SampleEvery 1).
	net, err := sensornet.NewNetwork(cfg, sensornet.DefaultEnergyModel(), 40, batchLen)
	if err != nil {
		t.Fatal(err)
	}
	net.Trace(rec)
	for k := 0; k < nodes; k++ {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		id := fmt.Sprintf("node-%02d", k)
		if err := net.AddNode(id, float64(k+1)*20, 20, func(round int) []float64 {
			x := float64(round) / 20
			return []float64{math.Sin(x) + 0.05*rng.NormFloat64(), math.Cos(x) + 0.05*rng.NormFloat64()}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Build(); err != nil {
		t.Fatal(err)
	}

	// The remote station: segment-store archive (tiny segments so seals
	// happen), bounded memory window (so cold queries exist), same tracer.
	st, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segstore.Open(segstore.Options{Dir: t.TempDir(), Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	st.SetArchive(seg, 6)
	st.SetTracer(rec)

	srv, err := netio.ServeWith(st, "127.0.0.1:0", netio.Options{
		Tracer:           rec,
		Logger:           obs.NewLogger(io.Discard, nil),
		HandshakeTimeout: time.Second,
		IdleTimeout:      5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The uplink crosses a fault injector that drops and cuts: delivery
	// needs retransmissions, and each retry must land in the SAME trace.
	inj := faultnet.New(faultnet.Config{
		Seed:     21,
		Drop:     0.06,
		Cut:      0.02,
		Delay:    0.05,
		MaxDelay: time.Millisecond,
	})
	met := netio.NewMetrics(obs.NewRegistry())
	clients := make(map[string]*netio.ReliableClient)
	net.Deliver = func(id string, frame []byte) error {
		rc, ok := clients[id]
		if !ok {
			var err error
			rc, err = netio.NewReliable(srv.Addr(), id, netio.ReliableOptions{
				Dial:        inj.Dialer(time.Second),
				AckTimeout:  200 * time.Millisecond,
				BackoffBase: time.Millisecond,
				BackoffMax:  20 * time.Millisecond,
				MaxAttempts: 200,
				Window:      4,
				Metrics:     met,
				Tracer:      rec,
				Rand:        rand.New(rand.NewSource(5)),
			})
			if err != nil {
				return err
			}
			clients[id] = rc
		}
		return rc.Send(frame)
	}

	if _, err := net.Run(batches * batchLen); err != nil {
		t.Fatal(err)
	}
	for id, rc := range clients {
		if err := rc.Close(); err != nil {
			t.Fatalf("uplink %s: %v (%s)", id, err, inj)
		}
	}
	if met.Retries.Value() == 0 && met.Reconnects.Value() == 0 {
		t.Fatalf("fault schedule too gentle (%s): nothing was retried, the join claim is untested", inj)
	}
	t.Logf("%s; retries=%d reconnects=%d", inj, met.Retries.Value(), met.Reconnects.Value())

	const wantFrames = nodes * batches
	stats, err := st.SensorStats("node-00")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Transmissions != batches {
		t.Fatalf("remote station holds %d transmissions for node-00, want %d", stats.Transmissions, batches)
	}

	// Every frame became exactly one trace. The recorder holds them all
	// (capacity exceeds the run), each with exactly one encode root and one
	// netio.send — a restarted trace would fork a second root or a second
	// send span.
	traces := rec.Recent(0)
	if len(traces) < wantFrames {
		t.Fatalf("recorder holds %d traces, want at least %d", len(traces), wantFrames)
	}
	retried := 0
	full := 0
	var probe *trace.Trace // a trace that crossed the faulted uplink
	for _, tr := range traces {
		tv := tr.Snapshot(true)
		if len(tv.Tree) != 1 {
			t.Fatalf("trace %s has %d roots, want 1", tv.ID, len(tv.Tree))
		}
		if tv.Tree[0].Stage != "encode" {
			t.Fatalf("trace %s root is %q, want the birth stage encode", tv.ID, tv.Tree[0].Stage)
		}
		stages := stageCount(tv.Tree)
		if stages["netio.send"] > 1 {
			t.Fatalf("trace %s has %d netio.send spans: retransmissions forked the trace", tv.ID, stages["netio.send"])
		}
		if stages["netio.retry"] > 0 {
			retried++
		}
		if stages["netio.send"] == 1 && stages["netio.recv"] >= 1 &&
			stages["station.receive"] >= 1 && stages["segstore.append"] >= 1 {
			full++
			probe = tr
		}
	}
	if met.Retries.Value() > 0 && retried == 0 {
		t.Error("frames were retried but no trace carries a netio.retry span")
	}
	if full < wantFrames {
		t.Fatalf("only %d/%d traces cover encode→send→recv→receive→append", full, wantFrames)
	}

	// Parent/child links on one fully travelled trace: the send half hangs
	// off the encode root; the archive append and the decode are children of
	// a station receive. (The trace holds two station.receive spans — the
	// simulator's internal base station and the remote one behind netio —
	// and only the remote one owns an archive, so the append must sit under
	// at least one of them.)
	ptv := probe.Snapshot(true)
	root := ptv.Tree[0]
	if len(findStages(root.Children, "netio.send")) == 0 {
		t.Error("netio.send is not a child of the encode root")
	}
	recvs := findStages(ptv.Tree, "station.receive")
	if len(recvs) == 0 {
		t.Fatal("no station.receive span")
	}
	var appends, decodes int
	for _, recv := range recvs {
		appends += len(findStages(recv.Children, "segstore.append"))
		decodes += len(findStages(recv.Children, "station.decode"))
	}
	if appends == 0 {
		t.Error("segstore.append is not a child of any station.receive")
	}
	if decodes == 0 {
		t.Error("station.decode is not a child of any station.receive")
	}

	// The query API joins the same trace via the X-Sbr-Trace header: the
	// span tree gains an http.range stage, and the response echoes the ID.
	api := httptest.NewServer(httpapi.New(st, 8))
	defer api.Close()
	tid := probe.TraceID().String()
	req, err := http.NewRequest("GET", api.URL+"/v1/range?sensor=node-00&row=0&from=0&to=64", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(httpapi.TraceHeader, tid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range query: status %d", resp.StatusCode)
	}
	if echo := resp.Header.Get(httpapi.TraceHeader); echo != tid {
		t.Errorf("response trace header %q, want %q", echo, tid)
	}
	qtv := probe.Snapshot(true)
	qs := stageCount(qtv.Tree)
	if qs["http.range"] == 0 {
		t.Error("query did not join the frame's trace: no http.range span")
	}
	if qs["station.range"] == 0 {
		t.Error("no station.range span under the query")
	}
	// The window [0, 64) lies before the 6-chunk memory window (8 batches
	// landed), so the query walked the cold path and the trace attributes
	// the archive fetches.
	if qs["segstore.cold_fetch"] == 0 {
		t.Error("query over evicted chunks recorded no segstore.cold_fetch span")
	}

	// The /debug/traces surface over real HTTP: list finds the trace,
	// detail returns its tree.
	debug := httptest.NewServer(rec.Handler("/debug/traces"))
	defer debug.Close()
	lresp, err := http.Get(debug.URL + "/debug/traces?sensor=node-00&limit=500")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Traces    []trace.TraceView `json:"traces"`
		Exemplars []struct {
			Stage string `json:"stage"`
		} `json:"exemplars"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) < batches {
		t.Errorf("/debug/traces lists %d node-00 traces, want >= %d", len(list.Traces), batches)
	}
	if len(list.Exemplars) == 0 {
		t.Error("/debug/traces reports no slow-path exemplars")
	}
	dresp, err := http.Get(debug.URL + "/debug/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var tv trace.TraceView
	if err := json.NewDecoder(dresp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	if tv.ID != tid || len(tv.Tree) != 1 || tv.Tree[0].Stage != "encode" {
		t.Errorf("/debug/traces/%s returned %+v", tid, tv)
	}
}
