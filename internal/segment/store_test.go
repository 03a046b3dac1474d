package segment

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var testFP = Fingerprint{Schema: []string{"price", "carat"}, UpstreamK: 10, UpstreamRanker: "sys+"}

// testDelta builds a distinguishable delta; pad makes it big enough to
// force the segment-file path under a small InlineLimit.
func testDelta(i, pad int) *Delta {
	d := &Delta{
		HistLo:  i * 2,
		HistHi:  i*2 + 2,
		Hist:    []Tuple{{ID: i * 2, Ord: []float64{float64(i), 1}}, {ID: i*2 + 1, Ord: []float64{float64(i), 2}}},
		Probes:  []ProbeOp{{Ranges: []ProbeRange{{Attr: 0, Lo: Bound(i), Hi: Bound(math.Inf(1))}}, Rows: []uint32{uint32(i * 2)}}},
		Queries: int64(i + 1),
	}
	for j := 0; j < pad; j++ {
		d.Hist = append(d.Hist, Tuple{ID: 1000 + i*pad + j, Ord: []float64{float64(j), float64(j)}})
	}
	return d
}

func replayAll(t *testing.T, s *Store) []*Delta {
	t.Helper()
	var out []*Delta
	if err := s.Replay(func(d *Delta) error { out = append(out, d); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func deltasEqual(a, b *Delta) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

func TestStoreAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Tiny inline limit: delta 1 stays inline, the padded delta 2 becomes
	// a segment file.
	s, err := Open(dir, Options{Fingerprint: testFP, InlineLimit: 400, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []*Delta{testDelta(0, 0), testDelta(1, 50), testDelta(2, 0)}
	for _, d := range want {
		if err := s.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Checkpoints != 3 || st.JournalRecords != 3 || st.SegmentFiles != 1 || st.Seq != 3 {
		t.Fatalf("stats after appends: %+v", st)
	}
	s.Close()

	// Reopen cold (as after a kill -9: no clean shutdown beyond the fsyncs
	// Append already did) and replay.
	s2, err := Open(dir, Options{Fingerprint: testFP, InlineLimit: 400, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := replayAll(t, s2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d deltas, want %d", len(got), len(want))
	}
	for i := range want {
		if !deltasEqual(got[i], want[i]) {
			t.Fatalf("delta %d mismatch", i)
		}
	}
	if st := s2.Stats(); st.ReplayedDeltas != 3 || st.DroppedRecords != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
}

func TestStoreRecoversFromTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: testFP, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDelta(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDelta(1, 0)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Crash mid-append: garbage half-line at the journal tail.
	f, err := os.OpenFile(filepath.Join(dir, "journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"kind":"delta","seq":3,"del`)
	f.Close()

	s2, err := Open(dir, Options{Fingerprint: testFP, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, s2)
	if len(got) != 2 {
		t.Fatalf("replayed %d deltas after torn tail, want 2", len(got))
	}
	if st := s2.Stats(); st.DroppedRecords != 1 || st.Seq != 2 {
		t.Fatalf("stats after torn-tail recovery: %+v", st)
	}
	// The journal was truncated to the valid prefix: appends work and a
	// third open sees a clean log.
	if err := s2.Append(testDelta(2, 0)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, Options{Fingerprint: testFP, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := replayAll(t, s3); len(got) != 3 {
		t.Fatalf("replayed %d deltas after repair+append, want 3", len(got))
	}
	if st := s3.Stats(); st.DroppedRecords != 0 {
		t.Fatalf("repaired journal still dropping records: %+v", st)
	}
}

func TestStoreQuarantinesCorruptSegmentAndKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: testFP, InlineLimit: 1, CompactAfter: -1}) // everything becomes a file
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(testDelta(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Corrupt the second committed segment file.
	names, _ := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if len(names) != 3 {
		t.Fatalf("want 3 segment files, got %v", names)
	}
	data, _ := os.ReadFile(names[1])
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(names[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Fingerprint: testFP, InlineLimit: 1, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, s2)
	if len(got) != 1 || !deltasEqual(got[0], testDelta(0, 0)) {
		t.Fatalf("replayed %d deltas, want exactly the pre-corruption prefix (1)", len(got))
	}
	st := s2.Stats()
	if st.DroppedRecords != 2 { // the corrupt record and its successor
		t.Fatalf("dropped %d records, want 2 (%+v)", st.DroppedRecords, st)
	}
	// The bad file (and the now-orphaned third) moved to quarantine, and
	// the journal was rewritten to the valid prefix.
	qnames, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(qnames) == 0 {
		t.Fatal("nothing quarantined")
	}
	if err := s2.Append(testDelta(9, 0)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, Options{Fingerprint: testFP, InlineLimit: 1, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := replayAll(t, s3); len(got) != 2 {
		t.Fatalf("replayed %d deltas after recovery+append, want 2", len(got))
	}
}

func TestStoreQuarantinesForeignFingerprint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: testFP, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDelta(0, 0)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	other := Fingerprint{Schema: []string{"price", "carat"}, UpstreamK: 25, UpstreamRanker: "sys-"}
	s2, err := Open(dir, Options{Fingerprint: other, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := replayAll(t, s2); len(got) != 0 {
		t.Fatalf("foreign store replayed %d deltas, want 0", len(got))
	}
	qnames, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(qnames) == 0 {
		t.Fatal("foreign journal not quarantined")
	}
	// The fresh store works.
	if err := s2.Append(testDelta(1, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreQuarantinesOtherFormatGeneration: a store written under an
// earlier format generation (same upstream, same fingerprint) is moved aside
// whole and the namespace starts cold — its records mean something else.
func TestStoreQuarantinesOtherFormatGeneration(t *testing.T) {
	dir := t.TempDir()
	header, err := encodeRecord(&journalRecord{Kind: "header", Format: Format - 1, Fingerprint: &testFP})
	if err != nil {
		t.Fatal(err)
	}
	old, err := encodeRecord(&journalRecord{Kind: "delta", Seq: 1, Delta: testDelta(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal"), append(header, old...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Fingerprint: testFP, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := replayAll(t, s); len(got) != 0 {
		t.Fatalf("format-%d store replayed %d deltas under format %d, want 0", Format-1, len(got), Format)
	}
	if qnames, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*")); len(qnames) == 0 {
		t.Fatal("old-format journal not quarantined")
	}
	if err := s.Append(testDelta(1, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: testFP, InlineLimit: 400, CompactAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []*Delta{testDelta(0, 0), testDelta(1, 50), testDelta(2, 0), testDelta(3, 50)}
	for _, d := range want {
		if err := s.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions != 1 || st.JournalRecords != 1 || st.SegmentFiles != 1 {
		t.Fatalf("stats after auto-compaction: %+v", st)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if len(names) != 1 {
		t.Fatalf("superseded segment files not removed: %v", names)
	}
	s.Close()

	s2, err := Open(dir, Options{Fingerprint: testFP, InlineLimit: 400, CompactAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := replayAll(t, s2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d deltas after compaction, want %d", len(got), len(want))
	}
	for i := range want {
		if !deltasEqual(got[i], want[i]) {
			t.Fatalf("delta %d mismatch after compaction", i)
		}
	}
}

func TestStoreAppendFailpointRollsBack(t *testing.T) {
	dir := t.TempDir()
	fail := ""
	s, err := Open(dir, Options{
		Fingerprint:  testFP,
		CompactAfter: -1,
		Failpoint: func(stage string) error {
			if stage == fail {
				return errors.New("injected writer failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDelta(0, 0)); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"journal-write", "journal-sync"} {
		fail = stage
		if err := s.Append(testDelta(1, 0)); err == nil {
			t.Fatalf("append with %s failpoint succeeded", stage)
		}
	}
	fail = ""
	// The failed appends rolled back: the retry commits cleanly and a cold
	// reopen sees exactly the committed records.
	if err := s.Append(testDelta(1, 0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{Fingerprint: testFP, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := replayAll(t, s2); len(got) != 2 {
		t.Fatalf("replayed %d deltas, want 2", len(got))
	}
	if st := s2.Stats(); st.DroppedRecords != 0 {
		t.Fatalf("rollback left a torn tail: %+v", st)
	}
}

func TestStoreSweepsUncommittedSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: testFP, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDelta(0, 0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A segment file written but never committed (crash between the file
	// write and the journal append).
	stray := filepath.Join(dir, "segments", "99999999-deadbeefdead.seg")
	if err := os.WriteFile(stray, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Fingerprint: testFP, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("uncommitted segment file not swept")
	}
	if got := replayAll(t, s2); len(got) != 1 {
		t.Fatalf("replayed %d deltas, want 1", len(got))
	}
}
