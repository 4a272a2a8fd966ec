package segstore

import (
	"bytes"
	"os"
	"testing"
)

// FuzzScanSegment feeds arbitrary bytes to the segment reader: whatever a
// crashed disk or a corrupt transfer hands us, scanning and decoding must
// fail cleanly (error or torn-tail truncation), never panic, and never
// claim more good bytes than the input holds.
func FuzzScanSegment(f *testing.F) {
	cfg := testConfig()

	// Seed with a real segment and mutations of it so the fuzzer starts
	// past the magic/header checks. SegmentChunks large → one sealed file
	// with header, records, footer and trailer all present.
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
	if err != nil {
		f.Fatal(err)
	}
	rows, _ := feedStore(f, s, cfg, "node", makeFrames(f, cfg, 4, 16), 0)
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(activeSegPath(f, dir, "node"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)/2])
	f.Add(seg[:len(seg)-5])
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("SBRSEG1\x00"))
	f.Add([]byte{})
	// The same records in the legacy format: row summaries in every
	// record and a per-record footer index, sealed and torn.
	legacy := legacySegment(f, seg, rows, true)
	f.Add(legacy)
	f.Add(legacy[:len(legacy)-30])

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := scanSegment(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if scan.Good < 0 || scan.Good > int64(len(data)) {
			t.Fatalf("Good offset %d outside input of %d bytes", scan.Good, len(data))
		}
		if len(scan.Recs) != len(scan.Frames) {
			t.Fatalf("%d record metas vs %d frames", len(scan.Recs), len(scan.Frames))
		}
		// Decoding survivors must also be panic-free; errors are fine (the
		// frames may be garbage that happened to checksum).
		_, _ = decodeSegmentChunks(cfg, scan)
	})
}
