package segstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sbr/internal/timeseries"
)

// The legacy segment format: every record carries one row summary (sum,
// min, max) per quantity, and the footer indexes every record with its
// byte offset, bound and summaries. Stores written that way must stay
// readable; these types and encoders reproduce the old writer.

type legacyRowSummary struct {
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

type legacyRecMeta struct {
	Chunk  int                `json:"chunk"`
	Offset int64              `json:"offset"`
	Unix   int64              `json:"unix"`
	Bound  float64            `json:"bound"`
	Rows   []legacyRowSummary `json:"rows"`
}

type legacyFooter struct {
	FirstChunk int             `json:"first_chunk"`
	Records    int             `json:"records"`
	MinUnix    int64           `json:"min_unix"`
	MaxUnix    int64           `json:"max_unix"`
	Recs       []legacyRecMeta `json:"recs"`
}

func legacySummaries(rows []timeseries.Series) []legacyRowSummary {
	out := make([]legacyRowSummary, len(rows))
	for i, r := range rows {
		rs := legacyRowSummary{Sum: r[0], Min: r[0], Max: r[0]}
		for _, v := range r[1:] {
			rs.Sum += v
			rs.Min = min(rs.Min, v)
			rs.Max = max(rs.Max, v)
		}
		out[i] = rs
	}
	return out
}

func legacyRecordBlock(m legacyRecMeta, frame []byte) []byte {
	payload := []byte{blockRecord}
	payload = binary.AppendUvarint(payload, uint64(m.Chunk))
	payload = binary.AppendVarint(payload, m.Unix)
	payload = appendFloat(payload, m.Bound)
	payload = binary.AppendUvarint(payload, uint64(len(m.Rows)))
	for _, rs := range m.Rows {
		payload = appendFloat(payload, rs.Sum)
		payload = appendFloat(payload, rs.Min)
		payload = appendFloat(payload, rs.Max)
	}
	payload = binary.AppendUvarint(payload, uint64(len(frame)))
	return appendBlock(nil, append(payload, frame...))
}

// legacySegment rewrites a segment file in the legacy format: same header,
// same frames, bounds and times, plus per-record row summaries computed
// from the live rows (rows[i] belongs to the segment's i-th record) and,
// when sealed, the full footer index.
func legacySegment(t testing.TB, seg []byte, rows [][]timeseries.Series, sealed bool) []byte {
	t.Helper()
	scan, err := scanSegment(bytes.NewReader(seg), int64(len(seg)))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), segMagic[:]...)
	hb, err := encodeHeaderBlock(scan.Header)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, hb...)
	ft := legacyFooter{FirstChunk: scan.Header.FirstChunk, Records: len(scan.Recs)}
	for i, r := range scan.Recs {
		m := legacyRecMeta{
			Chunk: scan.Header.FirstChunk + i, Offset: int64(len(out)),
			Unix: r.Unix, Bound: r.Bound, Rows: legacySummaries(rows[i]),
		}
		out = append(out, legacyRecordBlock(m, scan.Frames[i])...)
		if i == 0 || m.Unix < ft.MinUnix {
			ft.MinUnix = m.Unix
		}
		ft.MaxUnix = max(ft.MaxUnix, m.Unix)
		ft.Recs = append(ft.Recs, m)
	}
	if !sealed {
		return out
	}
	body, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	footerOff := uint64(len(out))
	out = appendBlock(out, append([]byte{blockFooter}, body...))
	out = binary.LittleEndian.AppendUint64(out, footerOff)
	return append(out, trailerMagic[:]...)
}

// stageLegacy archives frames into a one-segment store, closes it (which
// seals the segment), and returns the new-format directory plus a copy
// whose segment file is rewritten in the legacy format, with the manifest
// byte count to match.
func stageLegacy(t *testing.T, n int) (newDir, oldDir string, rows [][]timeseries.Series, bounds []float64) {
	t.Helper()
	cfg := testConfig()
	newDir = t.TempDir()
	s, err := Open(Options{Dir: newDir, Config: cfg, SegmentChunks: 100})
	if err != nil {
		t.Fatal(err)
	}
	rows, bounds = feedStore(t, s, cfg, "node", makeFrames(t, cfg, n, 16), 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := activeSegPath(t, newDir, "node")
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacySegment(t, seg, rows, true)
	if len(legacy) <= len(seg) {
		t.Fatalf("legacy segment %d bytes, new %d: summaries and index missing", len(legacy), len(seg))
	}

	oldDir = t.TempDir()
	rel, err := filepath.Rel(newDir, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(filepath.Join(oldDir, rel)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(oldDir, rel), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(newDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Sensors["node"].Segments[0].Bytes = int64(len(legacy))
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(oldDir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return newDir, oldDir, rows, bounds
}

// TestLegacySegmentsReadable opens a store whose sealed segment was written
// in the legacy format — footer index, per-record row summaries — both as
// a manifest entry and with the manifest lost after the footer became
// durable. Cold reads must match the new-format segment of the same frames
// and the live decode byte for byte.
func TestLegacySegmentsReadable(t *testing.T) {
	cfg := testConfig()
	for _, tc := range []struct {
		name         string
		manifestLost bool
	}{{"manifest-entry", false}, {"footer-durable-manifest-lost", true}} {
		t.Run(tc.name, func(t *testing.T) {
			newDir, oldDir, rows, bounds := stageLegacy(t, 6)
			if tc.manifestLost {
				if err := os.Remove(filepath.Join(oldDir, manifestName)); err != nil {
					t.Fatal(err)
				}
			}
			s, err := Open(Options{Dir: oldDir, Config: cfg, SegmentChunks: 100})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st := s.StoreStats(); st.SealedSegments != 1 || st.Segments != 1 {
				t.Errorf("legacy store stats %+v, want 1 sealed segment", st)
			}
			if _, err := os.Stat(filepath.Join(oldDir, manifestName)); err != nil {
				t.Errorf("manifest not rewritten: %v", err)
			}
			checkAll(t, s, "node", rows, bounds, 0)

			cur, err := Open(Options{Dir: newDir, Config: cfg, SegmentChunks: 100})
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			for c := range rows {
				want, wantBound, err := cur.ChunkRows("node", c)
				if err != nil {
					t.Fatal(err)
				}
				got, gotBound, err := s.ChunkRows("node", c)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRows(got, want) || gotBound != wantBound {
					t.Fatalf("chunk %d: legacy segment reads differ from the new-format one", c)
				}
			}
		})
	}
}

// TestScanRowSummaryCount pins the one relaxed record check: a record may
// carry no row summaries or exactly one per quantity (the legacy layout);
// any other count ends the scan there, as corruption.
func TestScanRowSummaryCount(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := feedStore(t, s, cfg, "node", makeFrames(t, cfg, 3, 16), 0)
	seg, err := os.ReadFile(activeSegPath(t, dir, "node"))
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	scan, err := scanSegment(bytes.NewReader(seg), int64(len(seg)))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		summaries int
		want      int // records the scan accepts
	}{{0, 3}, {1, 3}, {2, 1}} {
		out := append([]byte(nil), seg[:scan.Recs[0].Offset]...)
		for i, r := range scan.Recs {
			m := legacyRecMeta{Chunk: i, Unix: r.Unix, Bound: r.Bound}
			// Only record 1 carries the count under test: a rejected
			// count stops the scan after record 0.
			if i == 1 {
				for k := 0; k < tc.summaries; k++ {
					m.Rows = append(m.Rows, legacySummaries(rows[i])...)
				}
			}
			out = append(out, legacyRecordBlock(m, scan.Frames[i])...)
		}
		got, err := scanSegment(bytes.NewReader(out), int64(len(out)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Recs) != tc.want {
			t.Errorf("%d summaries in a 1-quantity record: scan kept %d records, want %d",
				tc.summaries, len(got.Recs), tc.want)
		}
		for i, f := range got.Frames {
			if !bytes.Equal(f, scan.Frames[i]) {
				t.Errorf("%d summaries: frame %d differs", tc.summaries, i)
			}
		}
	}
}

// TestScanFooterChecks pins the seal checks on the footer: one whose first
// chunk or record count disagrees with the records, or whose trailer
// points elsewhere, leaves the segment unsealed with every record kept.
func TestScanFooterChecks(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
	if err != nil {
		t.Fatal(err)
	}
	feedStore(t, s, cfg, "node", makeFrames(t, cfg, 3, 16), 0)
	seg, err := os.ReadFile(activeSegPath(t, dir, "node")) // unsealed
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	end := int64(len(seg))
	for _, tc := range []struct {
		name   string
		ft     segFooter
		off    int64
		sealed bool
	}{
		{"valid", segFooter{FirstChunk: 0, Records: 3}, end, true},
		{"first-chunk", segFooter{FirstChunk: 1, Records: 3}, end, false},
		{"records", segFooter{FirstChunk: 0, Records: 2}, end, false},
		{"trailer-offset", segFooter{FirstChunk: 0, Records: 3}, end + 1, false},
	} {
		block, err := encodeFooterBlock(tc.ft, tc.off)
		if err != nil {
			t.Fatal(err)
		}
		data := append(append([]byte(nil), seg...), block...)
		got, err := scanSegment(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if (got.Footer != nil) != tc.sealed || len(got.Recs) != 3 {
			t.Errorf("%s: sealed %v with %d records, want sealed %v with 3",
				tc.name, got.Footer != nil, len(got.Recs), tc.sealed)
		}
	}
}
