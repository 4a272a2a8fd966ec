package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"sbr/internal/core"
	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/obs/hist"
	"sbr/internal/segstore"
	"sbr/internal/station"
	"sbr/internal/wire"
)

// stationCfg is stationd's decoder configuration at its flag defaults
// (-band 150 -mbase 64). Sensors must encode with the same band and base
// buffer; their error metric is theirs to choose.
var stationCfg = core.Config{TotalBand: 150, MBase: 64, Metric: metrics.SSE}

// The remaining stationd defaults the stack reproduces.
const (
	memChunks       = 256              // -mem-chunks
	checkpointEvery = time.Minute      // -checkpoint
	selfmonInterval = 5 * time.Second  // -selfmon-interval
	selfmonError    = 0.01             // -selfmon-error
	drainTimeout    = 10 * time.Second // -drain
)

// stationdDefaults is every stationd flag with a non-zero default, and
// the default the stack is built for. Flags left out must default to
// zero, empty or false.
var stationdDefaults = map[string]string{
	"band":             strconv.Itoa(stationCfg.TotalBand),
	"mbase":            strconv.Itoa(stationCfg.MBase),
	"mem-chunks":       strconv.Itoa(memChunks),
	"segment-chunks":   strconv.Itoa(segstore.DefaultSegmentChunks),
	"history-cache":    strconv.Itoa(httpapi.DefaultCacheEntries),
	"checkpoint":       checkpointEvery.String(),
	"selfmon":          "true",
	"selfmon-interval": selfmonInterval.String(),
	"selfmon-error":    strconv.FormatFloat(selfmonError, 'g', -1, 64),
	"drain":            drainTimeout.String(),
	// Not reproduced: the stack listens on free loopback ports, writes
	// no periodic statistics log line and records no traces.
	"addr":      `"127.0.0.1:7070"`,
	"report":    "10s",
	"trace-cap": "256",
}

// flagDefault matches a flag's two lines in Go's flag usage output and
// captures its name and, when it is not the zero value, its default.
var flagDefault = regexp.MustCompile(`(?m)^  -(\S+)(?: \S+)?\n\s+.*?(?:\(default (.+)\))?$`)

// checkStationdDefaults compares the defaults a stationd binary prints
// for -h with stationdDefaults, so that a change to stationd's defaults
// fails the benchmark instead of leaving it measuring the old stack.
func checkStationdDefaults(bin string) error {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s -h: %w", bin, err)
	}
	got := make(map[string]string)
	for _, m := range flagDefault.FindAllStringSubmatch(string(out), -1) {
		if m[2] != "" {
			got[m[1]] = m[2]
		}
	}
	if len(got) == 0 {
		return fmt.Errorf("%s -h printed no flag defaults", bin)
	}
	var diffs []string
	for name, want := range stationdDefaults {
		if got[name] != want {
			diffs = append(diffs, fmt.Sprintf("-%s is %q, the stack assumes %q", name, got[name], want))
		}
	}
	for name, v := range got {
		if _, ok := stationdDefaults[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("-%s defaults to %s, which the stack does not reproduce", name, v))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("stationd's defaults changed; update stack.go: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// stack is the station side of the benchmark, assembled the way
// cmd/stationd assembles it at its defaults: a station, the persistent
// segment store when dataDir is set (memory only otherwise), the netio
// sensor server, the HTTP query API with its default history cache, the
// periodic checkpoint loop and the self-monitoring sampler with the
// built-in alert rules.
type stack struct {
	reg     *obs.Registry
	st      *station.Station
	seg     *segstore.Store
	srv     *netio.Server
	httpSrv *http.Server
	httpURL string
	sampler *hist.Sampler

	httpDone chan struct{}
	ckptStop chan struct{}
	ckptDone chan struct{}
	ckptErr  error
}

func startStack(dataDir string, log *slog.Logger) (*stack, error) {
	s := &stack{reg: obs.NewRegistry(), httpDone: make(chan struct{})}
	obs.RegisterBuildInfo(s.reg, "e2ebench", wire.VersionTraced)
	obs.RegisterRuntimeMetrics(s.reg)
	st, err := station.New(stationCfg)
	if err != nil {
		return nil, err
	}
	st.Instrument(s.reg)
	s.st = st
	if dataDir != "" {
		seg, err := segstore.Open(segstore.Options{Dir: dataDir, Config: stationCfg})
		if err != nil {
			return nil, err
		}
		seg.Instrument(s.reg)
		st.SetArchive(seg, memChunks)
		if _, err := st.Recover(); err != nil {
			seg.Close()
			return nil, fmt.Errorf("recovering station: %w", err)
		}
		s.seg = seg
	}
	s.srv, err = netio.ServeWith(st, "127.0.0.1:0", netio.Options{
		Metrics:         netio.NewMetrics(s.reg),
		Logger:          log,
		ArchiveDegraded: st.ArchiveDegraded,
	})
	if err != nil {
		s.closeStore()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		s.closeStore()
		return nil, err
	}
	s.httpURL = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: httpapi.NewObserved(st, httpapi.DefaultCacheEntries, s.reg)}
	go func() {
		defer close(s.httpDone)
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("http server failed", "err", err)
		}
	}()

	s.sampler = hist.NewSampler(s.reg, hist.Options{Interval: selfmonInterval, ErrorBound: selfmonError})
	alerts, err := hist.NewEngine(s.sampler, nil, hist.DefaultRules())
	if err != nil {
		s.close()
		return nil, err
	}
	s.sampler.AfterTick(alerts.Evaluate)
	s.sampler.Start()

	if s.seg != nil {
		s.ckptStop, s.ckptDone = make(chan struct{}), make(chan struct{})
		go s.checkpointLoop()
	}
	return s, nil
}

// checkpointLoop is stationd's periodic checkpoint and retention pass.
func (s *stack) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(checkpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case now := <-t.C:
			if err := s.st.Checkpoint(); err != nil {
				s.ckptErr = err
				return
			}
			if _, err := s.seg.EnforceRetention(now); err != nil {
				s.ckptErr = err
				return
			}
			s.seg.UpdateCheckpointAge()
		}
	}
}

// close shuts the stack down in stationd's order: stop sampling, drain
// the sensor transport and the HTTP server, then write the final
// checkpoint (when finalCheckpoint) and close the store.
func (s *stack) close() error {
	return s.shutdown(true)
}

func (s *stack) shutdown(finalCheckpoint bool) error {
	s.sampler.Stop()
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.httpSrv.Shutdown(ctx); err == nil {
		err = herr
	}
	<-s.httpDone
	if err == nil {
		err = s.ckptErr
	}
	if s.seg != nil && finalCheckpoint {
		if cerr := s.st.Checkpoint(); err == nil {
			err = cerr
		}
	}
	if cerr := s.closeStore(); err == nil {
		err = cerr
	}
	return err
}

func (s *stack) closeStore() error {
	if s.seg == nil {
		return nil
	}
	return s.seg.Close()
}
