// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the station stack, assembled the way cmd/stationd
// assembles it at its defaults, driven by one in-process generator over
// loopback TCP and HTTP. It checks its own outputs and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are the end-to-end metrics, with -trace 1 the
// per-layer metrics of a traced run; every workload prints all of either
// set. See NOTES.md for the workloads, metrics and how to read them.
//
//	bash e2ebench/run.sh --workload durable_ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sbr/internal/obs"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // fixture and round size multiplier: 1, smaller in the smoke test
	work     string  // scratch directory for this run's data
	spansOut string  // where a traced run writes its spans
	log      *slog.Logger
}

// timed returns the length of the timed phase.
func (c *config) timed() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// scaled scales a size by c.scale, keeping it at least min.
func (c *config) scaled(n, min int) int {
	v := int(float64(n) * c.scale)
	if v < min {
		v = min
	}
	return v
}

type workloadFunc func(cfg *config, res *result) error

var workloads = map[string]workloadFunc{
	"durable_ingest": runDurableIngest,
	"encode_stream":  runEncodeStream,
	"live_mixed":     runLiveMixed,
	"archive_scan":   runArchiveScan,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: durable_ingest, encode_stream, live_mixed or archive_scan")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		root     = flag.String("root", ".", "checkout root; scratch data lives under <root>/.bench_build")
		stationd = flag.String("stationd", "", "stationd binary whose flag defaults the stack must match (empty: not checked)")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive, -trace 0 or 1")
		os.Exit(2)
	}
	if *stationd != "" {
		if err := checkStationdDefaults(*stationd); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		scale:    1,
		work:     work,
		spansOut: filepath.Join(*root, ".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed)),
		log:      obs.NewLogger(os.Stderr, slog.LevelWarn),
	}
	// The run's data stays under .bench_build: this disk discards blocks
	// on unlink, so deleting the fsynced files of a run takes seconds.
	res, err := execute(wl, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	if err := res.print(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !res.ok() {
		os.Exit(1)
	}
}

// execute runs one workload and adds the process's peak memory.
func execute(wl workloadFunc, cfg *config) (*result, error) {
	res := newResult()
	if err := wl(cfg, res); err != nil {
		return nil, err
	}
	hwm, err := peakRSS()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	res.e2e("mem_peak_mb", "MiB", hwm)
	return res, nil
}

// metricVal is one printed metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects a run's metrics, operation counts and check violations.
type result struct {
	attempted, failed int
	endToEnd, layers  map[string]metricVal
	problems          []string
}

func newResult() *result {
	return &result{endToEnd: map[string]metricVal{}, layers: map[string]metricVal{}}
}

func (r *result) e2e(name, unit string, v float64)   { r.endToEnd[name] = metricVal{v, unit} }
func (r *result) layer(name, unit string, v float64) { r.layers[name] = metricVal{v, unit} }

// violate records a failed output check; the run then reports
// correct=false and exits non-zero.
func (r *result) violate(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "further violations omitted")
	}
}

// count adds operations attempted and failed.
func (r *result) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *result) ok() bool { return len(r.problems) == 0 && r.failed == 0 }

func (r *result) print(f *os.File, traced bool) error {
	m := r.endToEnd
	if traced {
		m = r.layers
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.ok(), r.attempted, r.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(out))
	return err
}

// How many times a run builds its set-up: setup_s is the median, and all
// but the last set-up are torn down unused. Set-ups well under a second
// are repeated more often, as they are noisier and cheap to repeat.
const (
	setupRepeats      = 3
	quickSetupRepeats = 7
)

// repeatSetup builds a workload's set-up n times, tears all but the last
// down, and reports the median build time as setup_s.
func repeatSetup[T any](cfg *config, res *result, n int, build func(dir string) (T, error), teardown func(T) error) (T, error) {
	var (
		env   T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(env); err != nil {
				return env, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			// Leave the torn-down set-up's garbage out of the next one.
			runtime.GC()
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		var err error
		if env, err = build(dir); err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	res.e2e("setup_s", "s", median(times))
	return env, nil
}

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// regSnap is a point-in-time copy of an obs registry: counter and gauge
// values plus histogram bucket counts, for deltas over a timed phase.
type regSnap struct {
	vals  map[string]float64
	hists map[string]obs.HistView
}

func snapRegistry(reg *obs.Registry) regSnap {
	s := regSnap{vals: reg.Values(), hists: map[string]obs.HistView{}}
	reg.Visit(func(smp obs.Sample) {
		if smp.Hist != nil {
			s.hists[smp.FullName()] = *smp.Hist
		}
	})
	return s
}

// delta returns the change of a counter between two snapshots.
func delta(a, b regSnap, name string) float64 { return b.vals[name] - a.vals[name] }

// histDelta returns the q-quantile of the observations a histogram
// received between two snapshots.
func histDelta(a, b regSnap, name string, q float64) float64 {
	hb, ok := b.hists[name]
	if !ok {
		return 0
	}
	ha := a.hists[name]
	d := obs.HistView{Bounds: hb.Bounds, Counts: make([]uint64, len(hb.Counts))}
	for i := range hb.Counts {
		d.Counts[i] = hb.Counts[i]
		if i < len(ha.Counts) {
			d.Counts[i] -= ha.Counts[i]
		}
		d.Count += d.Counts[i]
	}
	return d.Quantile(q)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the runtime allocation and GC pause over a timed phase.
type memDelta struct {
	allocBytes float64
	gcPauseMs  float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memBetween(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: float64(b.TotalAlloc - a.TotalAlloc),
		gcPauseMs:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}
