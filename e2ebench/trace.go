package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the generator made into a layer's public
// function. Spans of one frame or one query share Op; Parent indexes the
// enclosing span in the same log (-1: a root). Replayed calls carry the Op
// of the frame or query they repeat.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps the spans of one generator goroutine in memory. A nil or
// switched-off log records nothing, so untraced runs pay one branch per
// call. Logs are merged and written out when the run ends.
type spanLog struct {
	t0    time.Time
	on    bool
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

// open starts a span and returns its index (-1 when not recording).
func (l *spanLog) open(name string, op int64, parent int) int {
	if l == nil || !l.on {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(l.spans) - 1
}

// close ends the span open returned.
func (l *spanLog) close(i int) {
	if i >= 0 {
		l.spans[i].End = time.Since(l.t0).Nanoseconds()
	}
}

// add records a span whose bounds were taken by the caller.
func (l *spanLog) add(name string, op int64, parent int, start, end time.Time) int {
	if l == nil || !l.on {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

// ops returns the set of ops the log has spans for.
func (l *spanLog) ops() map[int64]bool {
	out := make(map[int64]bool)
	for _, s := range l.spans {
		out[s.Op] = true
	}
	return out
}

// spanSet is the merged span record of a traced run.
type spanSet struct {
	spans []span
}

func mergeSpans(logs ...*spanLog) *spanSet {
	var out spanSet
	for _, l := range logs {
		if l == nil {
			continue
		}
		base := len(out.spans)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out.spans = append(out.spans, s)
		}
	}
	return &out
}

// durations returns the durations of every span with the given name.
func (ss *spanSet) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ss.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// byOp returns the duration of the (first) span of the given name for
// every op that has one.
func (ss *spanSet) byOp(name string) map[int64]time.Duration {
	out := make(map[int64]time.Duration)
	for _, s := range ss.spans {
		if s.Name != name {
			continue
		}
		if _, ok := out[s.Op]; !ok {
			out[s.Op] = s.dur()
		}
	}
	return out
}

// perOp sums, for every op, the durations of its spans with the given
// names: the replayed lower-layer calls of one frame.
func (ss *spanSet) perOp(names ...string) map[int64]time.Duration {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[int64]time.Duration)
	for _, s := range ss.spans {
		if want[s.Name] {
			out[s.Op] += s.dur()
		}
	}
	return out
}

// rootOps returns the ops of the root spans with the given name, in the
// order they started.
func (ss *spanSet) rootOps(name string) []int64 {
	var roots []span
	for _, s := range ss.spans {
		if s.Name == name && s.Parent < 0 {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	out := make([]int64, len(roots))
	for i, s := range roots {
		out[i] = s.Op
	}
	return out
}

// total sums the durations of every span with the given name.
func (ss *spanSet) total(name string) time.Duration {
	var t time.Duration
	for _, s := range ss.spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// coverage sums, over the root spans with the given name, the time the
// layers' own calls account for, and the roots' wall time. A root's
// layer time is the time of its direct children named in own (calls the
// generator timed itself) plus layer[op] for every op among its children
// (calls replayed through the lower layers). A root with a child op that
// layer lacks was not replayed and is left out. Calls that only wrap
// lower layers (Send, Flush, an HTTP round trip) count for nothing, so
// time inside them that no lower layer accounts for lowers the share.
func (ss *spanSet) coverage(root string, own []string, layer map[int64]time.Duration) (covered, wall time.Duration) {
	isOwn := make(map[string]bool, len(own))
	for _, n := range own {
		isOwn[n] = true
	}
	type acc struct {
		own      time.Duration
		ops      map[int64]bool
		complete bool
	}
	roots := make(map[int]*acc)
	for i, s := range ss.spans {
		if s.Name == root && s.Parent < 0 {
			roots[i] = &acc{ops: map[int64]bool{}, complete: true}
		}
	}
	for _, s := range ss.spans {
		r, ok := roots[s.Parent]
		if s.Parent < 0 || !ok {
			continue
		}
		if isOwn[s.Name] {
			r.own += s.dur()
		}
		if _, ok := layer[s.Op]; ok {
			r.ops[s.Op] = true
		} else {
			r.complete = false
		}
	}
	for i, r := range roots {
		if !r.complete {
			continue
		}
		wall += ss.spans[i].dur()
		covered += r.own
		for op := range r.ops {
			covered += layer[op]
		}
	}
	return covered, wall
}

// write stores the spans as JSON lines under path.
func (ss *spanSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range ss.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}

// pct returns the q-quantile (nearest rank) of xs; 0 for an empty slice.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// in converts durations to float64 in the given unit.
func in(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
