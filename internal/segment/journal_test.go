package segment

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalLineRoundTrip(t *testing.T) {
	rec := &journalRecord{Kind: "delta", Seq: 7, Delta: &Delta{
		HistLo: 3, HistHi: 5,
		Hist:    []Tuple{{ID: 1, Ord: []float64{1, 2}}, {ID: 2, Ord: []float64{3, 4}, Cat: map[string]string{"c": "x"}}},
		Probes:  []ProbeOp{{Ranges: []ProbeRange{{Attr: 1, Lo: 0, Hi: 9, HiOpen: true}}, Rows: []uint32{3, 4}, Crawled: true}},
		Queries: 42,
	}}
	line, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatalf("line not newline-terminated")
	}
	got, err := decodeLine(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != "delta" || got.Seq != 7 || got.Delta == nil || got.Delta.Queries != 42 ||
		len(got.Delta.Hist) != 2 || got.Delta.Hist[1].Cat["c"] != "x" ||
		len(got.Delta.Probes) != 1 || !got.Delta.Probes[0].Crawled || !got.Delta.Probes[0].Ranges[0].HiOpen {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestProbeOpBoundsRoundTrip: a probe's range may be half-unbounded, which a
// JSON number cannot say; every bound value and the overflow flag survive the
// journal exactly, and a string that is not a non-finite float is refused.
func TestProbeOpBoundsRoundTrip(t *testing.T) {
	in := ProbeOp{
		Ranges: []ProbeRange{
			{Attr: 0, Lo: Bound(math.Inf(-1)), Hi: 12.5, LoOpen: true},
			{Attr: 3, Lo: -0.1, Hi: Bound(math.Inf(1)), HiOpen: true},
			{Attr: 4, Lo: Bound(math.NaN()), Hi: 1e300},
		},
		Cats:     map[string]string{"c": "x"},
		Rows:     []uint32{7, 0, math.MaxUint32},
		Overflow: true,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ProbeOp
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("%s: %v", data, err)
	}
	again, _ := json.Marshal(out)
	if !bytes.Equal(again, data) || !math.IsInf(float64(out.Ranges[0].Lo), -1) || out.Ranges[0].Hi != 12.5 ||
		!math.IsInf(float64(out.Ranges[1].Hi), 1) || !math.IsNaN(float64(out.Ranges[2].Lo)) || out.Rows[2] != math.MaxUint32 || !out.Overflow {
		t.Fatalf("round trip: %s became %+v (%s)", data, out, again)
	}
	for _, bad := range []string{`"12.5"`, `"huge"`, `""`, `"+Inf`, `true`} {
		var b Bound
		if err := json.Unmarshal([]byte(bad), &b); err == nil {
			t.Errorf("bound %s accepted as %v", bad, b)
		}
	}
}

func TestJournalLineRejectsCorruption(t *testing.T) {
	line, err := encodeRecord(&journalRecord{Kind: "header", Format: Format, Fingerprint: &Fingerprint{Schema: []string{"a"}}})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.TrimSuffix(line, []byte("\n"))

	// Flip one payload byte: the CRC must catch it.
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)-2] ^= 0x40
	if _, err := decodeLine(flipped); err == nil {
		t.Fatal("corrupted payload accepted")
	}
	// Truncated line (torn append).
	if _, err := decodeLine(body[:len(body)/2]); err == nil {
		t.Fatal("truncated line accepted")
	}
	// Unframed garbage.
	if _, err := decodeLine([]byte("not a journal line")); err == nil {
		t.Fatal("unframed line accepted")
	}
	if _, err := decodeLine(nil); err == nil {
		t.Fatal("empty line accepted")
	}
}

func TestScanJournalStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	l1, _ := encodeRecord(&journalRecord{Kind: "header", Format: Format, Fingerprint: &Fingerprint{Schema: []string{"a"}}})
	l2, _ := encodeRecord(&journalRecord{Kind: "delta", Seq: 1, Delta: &Delta{Queries: 1}})
	var content []byte
	content = append(content, l1...)
	content = append(content, l2...)
	valid := int64(len(content))
	content = append(content, l2[:len(l2)/2]...) // torn third line
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, bytesOK, torn, err := scanJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !torn || bytesOK != valid {
		t.Fatalf("got %d records, torn=%v, %d valid bytes; want 2, true, %d", len(recs), torn, bytesOK, valid)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	if err := WriteBytesAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteBytesAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("read %q, %v", got, err)
	}
	// No temp litter left behind.
	names, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(names) != 0 {
		t.Fatalf("temp files left behind: %v", names)
	}
	// A failing writer must not touch the destination.
	if err := WriteFileAtomic(path, func(f *os.File) error { return os.ErrInvalid }); err == nil {
		t.Fatal("writer failure not propagated")
	}
	got, _ = os.ReadFile(path)
	if string(got) != "two" {
		t.Fatalf("failed write clobbered destination: %q", got)
	}
}
