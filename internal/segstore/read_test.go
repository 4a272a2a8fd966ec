package segstore

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"sbr/internal/core"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// openReadStore archives n chunks of one sensor into a fresh store and
// returns it with the reference rows and per-chunk bounds.
func openReadStore(t testing.TB, segChunks, cacheSegs, n int) (*Store, [][]timeseries.Series, []float64) {
	t.Helper()
	cfg := testConfig()
	s, err := Open(Options{Dir: t.TempDir(), Config: cfg, SegmentChunks: segChunks, CacheSegments: cacheSegs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rows, bounds := feedStore(t, s, cfg, "node", makeFrames(t, cfg, n, 16), 0)
	return s, rows, bounds
}

// TestChunkRangeRowsOrdered verifies the parallel range fan-out: a read
// spanning several sealed segments plus the active one streams every
// chunk in order, byte-identical to the live decode, for assorted
// sub-ranges and worker counts.
func TestChunkRangeRowsOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, rows, bounds := openReadStore(t, 4, 2, 18) // 4 sealed segments + active
			s.opts.FetchWorkers = workers
			for _, span := range [][2]int{{0, 18}, {3, 13}, {4, 8}, {7, 18}, {17, 18}, {5, 5}} {
				from, to := span[0], span[1]
				next := from
				err := s.ChunkRangeRows("node", from, to, func(chunk int, got []timeseries.Series, bound float64) error {
					if chunk != next {
						t.Fatalf("range [%d,%d): got chunk %d, want %d", from, to, chunk, next)
					}
					if !sameRows(got, rows[chunk]) {
						t.Fatalf("range [%d,%d): chunk %d rows differ from live decode", from, to, chunk)
					}
					if bound != bounds[chunk] {
						t.Fatalf("range [%d,%d): chunk %d bound %v, want %v", from, to, chunk, bound, bounds[chunk])
					}
					next++
					return nil
				})
				if err != nil {
					t.Fatalf("range [%d,%d): %v", from, to, err)
				}
				if next != to {
					t.Fatalf("range [%d,%d): stopped at chunk %d", from, to, next)
				}
			}
		})
	}
}

// TestChunkRangeRowsCallbackError verifies a callback error stops the
// stream and surfaces unchanged.
func TestChunkRangeRowsCallbackError(t *testing.T) {
	s, _, _ := openReadStore(t, 4, 2, 12)
	boom := fmt.Errorf("boom")
	calls := 0
	err := s.ChunkRangeRows("node", 0, 12, func(chunk int, _ []timeseries.Series, _ float64) error {
		calls++
		if chunk == 5 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 6 {
		t.Fatalf("callback ran %d times, want 6", calls)
	}
}

// TestSingleflightJoin pins the dedup contract deterministically: while a
// decode of a segment is in flight, a second reader of the same segment
// joins it — blocking until the leader publishes — instead of decoding
// again, and the hit/wait counters record the join.
func TestSingleflightJoin(t *testing.T) {
	s, rows, _ := openReadStore(t, 4, 2, 12)

	ref, err := s.resolveChunk("node", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a flight for chunk 1's segment, as if a leader were mid-decode.
	f := &flight{done: make(chan struct{})}
	s.mu.Lock()
	s.flights[ref.key] = f
	s.mu.Unlock()

	got := make(chan error, 1)
	go func() {
		r, _, err := s.ChunkRows("node", 1)
		if err == nil && !sameRows(r, rows[1]) {
			err = fmt.Errorf("joined rows differ from live decode")
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("join returned before the leader published (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Leader finishes: decode for real, publish, release joiners.
	e, err := s.decodeRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	delete(s.flights, ref.key)
	s.mu.Unlock()
	f.e, f.err = e, nil
	close(f.done)

	if err := <-got; err != nil {
		t.Fatal(err)
	}
	st := s.StoreStats()
	if st.SingleflightHits != 1 || st.SingleflightWaits != 1 {
		t.Fatalf("singleflight hits=%d waits=%d, want 1/1", st.SingleflightHits, st.SingleflightWaits)
	}
}

// TestConcurrentColdReads hammers the lock-free fetch path: many readers
// over the same segments, raced against nothing but each other, must all
// see the live decode byte-identically (run with -race in CI).
func TestConcurrentColdReads(t *testing.T) {
	s, rows, _ := openReadStore(t, 4, 1, 16) // cache of 1: constant misses
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c := (g*7 + i*3) % 16
				got, _, err := s.ChunkRows("node", c)
				if err != nil {
					t.Errorf("ChunkRows(%d): %v", c, err)
					return
				}
				if !sameRows(got, rows[c]) {
					t.Errorf("ChunkRows(%d) differs from live decode", c)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSegCacheEviction proves O(1) LRU maintenance: steady-state
// put+get cost must stay flat as the cache capacity grows (the old
// order-slice scan was linear in capacity).
func BenchmarkSegCacheEviction(b *testing.B) {
	for _, capacity := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			c := newSegCache(capacity)
			e := &segCacheEntry{}
			// Fill to capacity so every put below evicts.
			for i := 0; i < capacity; i++ {
				c.put(cacheKey{"s", i, 1}, e)
			}
			keys := make([]cacheKey, capacity+b.N)
			for i := range keys {
				keys[i] = cacheKey{"s", i, 1}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.put(keys[capacity+i], e) // miss: insert + evict oldest
				c.get(keys[i+1])           // touch the oldest resident to churn the list
			}
		})
	}
}

// BenchmarkColdSegmentLoad measures one cold segment load as a query pays
// it on a cache miss: scanSealed reads and verifies the file, decodeScan
// replays its records through a cold decoder. The segment holds 64
// records of 32 quantities × 24 samples under the MaxAbs metric, the
// shape the station archives at its default band and segment size.
func BenchmarkColdSegmentLoad(b *testing.B) {
	cfg := core.Config{TotalBand: 150, MBase: 64, Metric: metrics.MaxAbs}
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([][]byte, DefaultSegmentChunks)
	for k := range frames {
		batch := make([]timeseries.Series, 32)
		for i := range batch {
			batch[i] = make(timeseries.Series, 24)
			for j := range batch[i] {
				batch[i][j] = 10*math.Sin(float64(24*k+j)/7+float64(i)/3) + float64(i%5)
			}
		}
		tr, err := comp.Encode(batch)
		if err != nil {
			b.Fatal(err)
		}
		if frames[k], err = wire.Encode(tr); err != nil {
			b.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: b.TempDir(), Config: cfg, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	feedStore(b, s, cfg, "node", frames, 0)
	s.mu.Lock()
	sealed := s.sensors["node"].sealed
	s.mu.Unlock()
	if len(sealed) != 1 {
		b.Fatalf("%d sealed segments, want 1", len(sealed))
	}
	sm := sealed[0]
	b.SetBytes(sm.Bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := s.scanSealed(sm)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeScan(cfg, scan); err != nil {
			b.Fatal(err)
		}
	}
}
