package main

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/outbox"
	"sbr/internal/station"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// sensorSide is one simulated sensor: seeded weather data, an SBR
// compressor configured like the station, and a reliable client with a
// durable outbox when the workload is durable.
type sensorSide struct {
	id   string
	idx  int64 // sensor number, the high half of its op IDs
	n, m int
	data *datagen.Dataset
	comp *core.Compressor
	rc   *netio.ReliableClient
	ob   *outbox.Outbox

	next      int      // chunk index of the next batch
	acked     int      // batches acknowledged
	wireBytes int      // frame bytes produced
	keep      bool     // keep frames for the traced replay
	frames    [][]byte // frames produced, by chunk, when keep
	log       *spanLog
}

// newSensorSide makes sensor idx with n quantities of m samples per batch
// and files distinct batches of seeded weather data (reused cyclically).
func newSensorSide(idx int, seed int64, n, m, files int, metric metrics.Kind, t0 time.Time) (*sensorSide, error) {
	cfg := stationCfg
	cfg.Metric = metric
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		return nil, err
	}
	// The weather generator yields 6 quantities; wider sensors stack
	// independently seeded stations.
	data := &datagen.Dataset{FileLen: m, Files: files}
	for k := int64(0); len(data.Rows) < n; k++ {
		w := datagen.WeatherSized(seed*101+int64(idx)*7+k, m, files)
		data.Rows = append(data.Rows, w.Rows...)
	}
	return &sensorSide{
		id:   fmt.Sprintf("sensor-%02d", idx),
		idx:  int64(idx),
		n:    n,
		m:    m,
		data: data,
		comp: comp,
		log:  newSpanLog(t0),
	}, nil
}

// opID identifies batch k of this sensor across spans and replays.
func (s *sensorSide) opID(k int) int64 { return s.idx<<32 | int64(k) }

// batch returns the raw rows of batch k: the samples the station's
// history must reproduce within the sensor's error.
func (s *sensorSide) batch(k int) []timeseries.Series {
	return s.data.File(k % s.data.Files)[:s.n]
}

// connect attaches the reliable client, with a durable outbox at
// outboxPath when it is not empty.
func (s *sensorSide) connect(addr, outboxPath string, netMet *netio.Metrics, obMet *outbox.Metrics, log *slog.Logger) error {
	opt := netio.ReliableOptions{Metrics: netMet, Logger: log}
	if outboxPath != "" {
		ob, err := outbox.Open(outboxPath, outbox.Options{Sensor: s.id, Metrics: obMet})
		if err != nil {
			return err
		}
		s.ob, opt.Outbox = ob, ob
	}
	rc, err := netio.NewReliable(addr, s.id, opt)
	if err != nil {
		return err
	}
	s.rc = rc
	return nil
}

// disconnect closes the client and the outbox, returning how many frames
// were still unacknowledged.
func (s *sensorSide) disconnect() (pending int, err error) {
	if s.rc != nil {
		err = s.rc.Close()
		var pe *netio.PendingError
		if errors.As(err, &pe) {
			pending = pe.Pending
		}
		s.rc = nil
	}
	if s.ob != nil {
		if cerr := s.ob.Close(); err == nil {
			err = cerr
		}
		s.ob = nil
	}
	return pending, err
}

// produce encodes batch k into a wire frame, recording the encoder and
// framing calls under parent.
func (s *sensorSide) produce(k int, parent int) ([]byte, error) {
	op := s.opID(k)
	i := s.log.open("core.encode", op, parent)
	tr, err := s.comp.Encode(s.batch(k))
	s.log.close(i)
	if err != nil {
		return nil, fmt.Errorf("%s batch %d: encode: %w", s.id, k, err)
	}
	i = s.log.open("wire.encode", op, parent)
	frame, err := wire.Encode(tr)
	s.log.close(i)
	if err != nil {
		return nil, fmt.Errorf("%s batch %d: framing: %w", s.id, k, err)
	}
	s.wireBytes += len(frame)
	if s.keep {
		s.frames = append(s.frames, frame)
	}
	return frame, nil
}

// round is one closed-loop round: produce and send frames batches back to
// back (sends pipeline up to the client's window), then flush until every
// one is acknowledged. It returns each batch's latency: from the start of
// its encode, when its last sample was due, to the flush's return, when
// the station had acknowledged it and so made it queryable.
func (s *sensorSide) round(frames int) ([]time.Duration, error) {
	root := s.log.open("round", s.opID(s.next), -1)
	defer s.log.close(root)
	starts := make([]time.Time, frames)
	for i := 0; i < frames; i++ {
		starts[i] = time.Now()
		frame, err := s.produce(s.next, root)
		if err != nil {
			return nil, err
		}
		sp := s.log.open("netio.send", s.opID(s.next), root)
		err = s.rc.Send(frame)
		s.log.close(sp)
		if err != nil {
			return nil, fmt.Errorf("%s batch %d: send: %w", s.id, s.next, err)
		}
		s.next++
	}
	sp := s.log.open("netio.flush.round", s.opID(s.next-1), root)
	err := s.rc.Flush()
	s.log.close(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: flush: %w", s.id, err)
	}
	acked := time.Now()
	s.acked = s.next
	lat := make([]time.Duration, frames)
	for i, t := range starts {
		lat[i] = acked.Sub(t)
	}
	return lat, nil
}

// checkHistory verifies that every acknowledged batch is queryable and,
// when sse is not nil, adds the squared reconstruction error of the
// sensor's whole history against its raw samples to *sse (and the sample
// count to *count).
func (s *sensorSide) checkHistory(st *station.Station, res *result, sse *float64, count *int) {
	got, err := st.HistoryLen(s.id)
	if err != nil {
		res.violate("%s: history length: %v", s.id, err)
		return
	}
	if want := s.acked * s.m; got != want {
		res.violate("%s: %d samples per quantity queryable, %d acknowledged", s.id, got, want)
		return
	}
	if sse == nil {
		return
	}
	for row := 0; row < s.n; row++ {
		if err := s.reconError(st, row, sse, count); err != nil {
			res.violate("%v", err)
			return
		}
	}
}

// reconError adds the squared error of one quantity's acknowledged
// history, as the station reconstructs it, against the raw samples to
// *sse and the sample count to *count.
func (s *sensorSide) reconError(st *station.Station, row int, sse *float64, count *int) error {
	hist, err := st.History(s.id, row)
	if err != nil {
		return fmt.Errorf("%s row %d: history: %w", s.id, row, err)
	}
	for k := 0; k < s.acked; k++ {
		raw := s.batch(k)[row]
		for j, v := range raw {
			d := hist[k*s.m+j] - v
			*sse += d * d
		}
	}
	*count += s.acked * s.m
	return nil
}
