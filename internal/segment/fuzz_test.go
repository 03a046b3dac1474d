package segment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"testing"
)

// fuzzDelta exercises every section of the delta schema.
var fuzzDelta = &Delta{
	HistLo: 3, HistHi: 5, Queries: 42, Epoch: 2,
	Hist: []Tuple{{ID: 1, Ord: []float64{1, 2}}, {ID: 2, Ord: []float64{3, 4}, Cat: map[string]string{"c": "x"}}},
	Probes: []ProbeOp{{
		Ranges: []ProbeRange{{Attr: 0, Lo: 1.5, Hi: Bound(math.Inf(1)), LoOpen: true, HiOpen: true}},
		Cats:   map[string]string{"c": "x"},
		Rows:   []uint32{4, 3}, Epoch: 2,
	}, {Rows: []uint32{3}, Overflow: true}, {
		Ranges: []ProbeRange{{Attr: 1, Lo: 0, Hi: 9, HiOpen: true}},
		Rows:   []uint32{3, 4}, Crawled: true, Epoch: 1,
	}, {
		Ranges: []ProbeRange{{Attr: 0, Lo: 0, Hi: 1}, {Attr: 1, Lo: 2, Hi: 3, LoOpen: true}},
		Rows:   []uint32{4}, Crawled: true,
	}},
}

// FuzzDecodeLine feeds the journal-line decoder arbitrary bytes, both raw
// (the CRC frame must reject them without panicking) and re-framed under a
// valid checksum (so the fuzzer reaches the JSON layer behind the frame). A
// body the codec accepts, encoding/json must accept too, with an equal
// value. A line that decodes must re-encode to a fixed point: recovery
// rewrites journals from decoded records.
func FuzzDecodeLine(f *testing.F) {
	for _, rec := range []*journalRecord{
		{Kind: "header", Format: Format, Fingerprint: &testFP},
		{Kind: "delta", Seq: 7, Delta: fuzzDelta},
		{Kind: "segment", Seq: 8, File: "ab.seg", SHA256: "ab", Deltas: 2},
	} {
		line, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimSuffix(line, []byte("\n"))[9:])
	}
	f.Add([]byte(`{"kind":"delta","delta":{"probes":[{"rows":null,"crawled":true}]}}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		if _, err := decodeLine(body); err == nil && len(body) < 10 {
			t.Fatalf("unframed %q accepted", body)
		}
		framed := fmt.Appendf(nil, "%08x %s", crc32.Checksum(body, crcTable), body)
		rec, err := decodeLine(framed)
		if err != nil {
			return
		}
		var ref journalRecord
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("codec accepted %q, encoding/json refuses it: %v", body, err)
		}
		if !sameDecoded(rec, &ref) {
			t.Fatalf("codec decoded %q as %+v, encoding/json as %+v", body, rec, &ref)
		}
		line, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		again, err := decodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if line2, _ := encodeRecord(again); !bytes.Equal(line2, line) {
			t.Fatalf("record unstable across encode/decode:\n first %s\nsecond %s", line, line2)
		}
	})
}

// FuzzDecodeSegment does the same for segment file bodies: no input panics,
// an accepted body decodes as encoding/json decodes it, and it carries the
// current format and the store's fingerprint — the two gates between a
// foreign file and engine knowledge.
func FuzzDecodeSegment(f *testing.F) {
	good, err := encodeSegment(testFP, []*Delta{fuzzDelta, {Queries: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(fmt.Appendf(nil, `{"format":%d,"fingerprint":{"schema":["price"]},"deltas":[null]}`, Format))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := decodeSegment(data, testFP)
		if err != nil {
			return
		}
		var ref segmentFile
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("codec accepted %q, encoding/json refuses it: %v", data, err)
		}
		if !sameDecoded(sf, &ref) {
			t.Fatalf("codec decoded %q as %+v, encoding/json as %+v", data, sf, &ref)
		}
		if sf.Format != Format || !sf.Fingerprint.Matches(testFP) {
			t.Fatalf("accepted a segment of format %d, fingerprint %+v", sf.Format, sf.Fingerprint)
		}
	})
}

// FuzzSegmentCodec is structure-aware: the fuzzer's bytes choose a
// fingerprint and deltas (nil and empty slices and maps, special floats and
// bounds, strings encoding/json escapes), and the encoder must write
// json.Marshal's bytes for them while the decoder reads those bytes into
// json.Unmarshal's value — for a segment file and for each delta's journal
// record.
func FuzzSegmentCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
	f.Add(bytes.Repeat([]byte{0xff, 0x13, 0x07}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{b: data}
		fp := genFingerprint(src)
		deltas := make([]*Delta, src.intn(3))
		for i := range deltas {
			deltas[i] = genDelta(src)
		}
		checkSegmentCodec(t, fp, deltas)
		for _, d := range deltas {
			checkRecordCodec(t, &journalRecord{Kind: "delta", Seq: uint64(src.intn(1 << 16)), Delta: d})
		}
	})
}
