package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke run checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that the output checks pass and that every run prints exactly
// the metrics BENCHMARK.json declares (end-to-end untraced, per-layer
// traced), each in its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		units[true][m.Name] = m.Unit
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("workload %q: no program", w.Name)
		}
		for _, traced := range []bool{false, true} {
			w, traced := w.Name, traced
			t.Run(map[bool]string{false: w, true: w + "/traced"}[traced], func(t *testing.T) {
				cfg := &config{
					workload: w,
					seed:     3,
					seconds:  0.3,
					trace:    traced,
					scale:    0.05,
					work:     t.TempDir(),
					spansOut: filepath.Join(t.TempDir(), "spans.jsonl"),
					log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
				}
				res, err := execute(workloads[w], cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.ok() || res.attempted < 1 {
					t.Fatalf("attempted %d, failed %d, problems %v", res.attempted, res.failed, res.problems)
				}
				got, want := res.endToEnd, units[traced]
				if traced {
					got = res.layers
				}
				for name, unit := range want {
					m, ok := got[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range got {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}
