package segment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// valueSource drives the delta generator: a seeded PRNG for the table
// tests, the fuzzer's bytes for FuzzSegmentCodec.
type valueSource interface {
	intn(n int) int
}

type randSource struct{ *rand.Rand }

func (r randSource) intn(n int) int { return r.Intn(n) }

// byteSource reads choices from fuzz input; past its end every choice is 0.
type byteSource struct{ b []byte }

func (s *byteSource) intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	if len(s.b) > 1 {
		v = v<<8 | int(s.b[1])
		s.b = s.b[2:]
	} else {
		s.b = s.b[1:]
	}
	return v % n
}

// codecFloats sit on both sides of encoding/json's float-format switches
// (1e-6 and 1e21) and include -0, subnormals and the extremes.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3, 5123.45, 62.1, -7.25e5,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 9.999999e-7,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 123456789012345678901.0,
	5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
	math.MaxFloat64, -math.MaxFloat64, 1e100, 1.5e-300, float64(1 << 53), 1e-10,
}

// codecStrings carry everything encoding/json escapes (HTML characters,
// quotes, control bytes, U+2028/U+2029) and invalid UTF-8, which it writes
// as U+FFFD.
var codecStrings = []string{
	"", "Round", "x", "a<b>&c", `quo"te\back/slash`, "\x00\x01\x1f", "\b\f\n\r\t", "\x7f",
	"\xff", "ok\xfe\xffok", "\xed\xa0\x80", "line\u2028sep\u2029", "\u00e9\u65e5\u672c\U0001F600", "\ufffd", "Ideal",
}

func pickFloat(s valueSource) float64 {
	if s.intn(3) == 0 {
		return float64(s.intn(1<<16)) / float64(1+s.intn(64))
	}
	return codecFloats[s.intn(len(codecFloats))]
}

func pickString(s valueSource) string { return codecStrings[s.intn(len(codecStrings))] }

func pickInt(s valueSource) int64 {
	switch s.intn(5) {
	case 0:
		return 0
	case 1:
		return []int64{math.MaxInt64, math.MinInt64, -1, 1 << 40}[s.intn(4)]
	default:
		return int64(s.intn(1<<16)) - 1000
	}
}

func pickBound(s valueSource) Bound {
	switch s.intn(6) {
	case 0:
		return Bound(math.Inf(1))
	case 1:
		return Bound(math.Inf(-1))
	case 2:
		return Bound(math.NaN())
	}
	return Bound(pickFloat(s))
}

// pickMap is nil, empty or filled (keys may repeat after escaping).
func pickMap(s valueSource) map[string]string {
	switch s.intn(3) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	m := map[string]string{}
	for n := 1 + s.intn(3); n > 0; n-- {
		m[pickString(s)] = pickString(s)
	}
	return m
}

// genLen returns -1 for a nil slice, else a length (0 = empty, non-nil).
func genLen(s valueSource, max int) int { return s.intn(max+2) - 1 }

func genDelta(s valueSource) *Delta {
	d := &Delta{HistLo: int(pickInt(s)), HistHi: int(pickInt(s)), Epoch: pickInt(s), Queries: pickInt(s)}
	if n := genLen(s, 4); n >= 0 {
		d.Hist = make([]Tuple, n)
		for i := range d.Hist {
			t := &d.Hist[i]
			t.ID = int(pickInt(s))
			if m := genLen(s, 4); m >= 0 {
				t.Ord = make([]float64, m)
				for j := range t.Ord {
					t.Ord[j] = pickFloat(s)
				}
			}
			t.Cat = pickMap(s)
		}
	}
	if n := genLen(s, 4); n >= 0 {
		d.Probes = make([]ProbeOp, n)
		for i := range d.Probes {
			p := &d.Probes[i]
			if m := genLen(s, 3); m >= 0 {
				p.Ranges = make([]ProbeRange, m)
				for j := range p.Ranges {
					p.Ranges[j] = ProbeRange{Attr: int(pickInt(s)), Lo: pickBound(s), Hi: pickBound(s),
						LoOpen: s.intn(2) == 0, HiOpen: s.intn(2) == 0}
				}
			}
			p.Cats = pickMap(s)
			if m := genLen(s, 5); m >= 0 {
				p.Rows = make([]uint32, m)
				for j := range p.Rows {
					p.Rows[j] = []uint32{0, 1, 7, math.MaxUint32, uint32(s.intn(1 << 16))}[s.intn(5)]
				}
			}
			p.Overflow, p.Crawled, p.Epoch = s.intn(2) == 0, s.intn(2) == 0, pickInt(s)
		}
	}
	return d
}

func genFingerprint(s valueSource) Fingerprint {
	fp := Fingerprint{UpstreamK: int(pickInt(s)), UpstreamRanker: pickString(s)}
	if n := genLen(s, 3); n >= 0 {
		fp.Schema = make([]string, n)
		for i := range fp.Schema {
			fp.Schema[i] = pickString(s)
		}
	}
	return fp
}

// sameDecoded is reflect.DeepEqual, except that a bound that is NaN on both
// sides counts as equal (NaN != NaN). It clears such bounds in place.
func sameDecoded(a, b any) bool {
	deltas := func(v any) []*Delta {
		switch x := v.(type) {
		case *segmentFile:
			return x.Deltas
		case *journalRecord:
			return []*Delta{x.Delta}
		}
		panic(fmt.Sprintf("sameDecoded: %T", v))
	}
	da, db := deltas(a), deltas(b)
	for i := range min(len(da), len(db)) {
		if da[i] == nil || db[i] == nil {
			continue
		}
		for p := range min(len(da[i].Probes), len(db[i].Probes)) {
			ra, rb := da[i].Probes[p].Ranges, db[i].Probes[p].Ranges
			for r := range min(len(ra), len(rb)) {
				if math.IsNaN(float64(ra[r].Lo)) && math.IsNaN(float64(rb[r].Lo)) {
					ra[r].Lo, rb[r].Lo = 0, 0
				}
				if math.IsNaN(float64(ra[r].Hi)) && math.IsNaN(float64(rb[r].Hi)) {
					ra[r].Hi, rb[r].Hi = 0, 0
				}
			}
		}
	}
	return reflect.DeepEqual(a, b)
}

// decodeSegmentBody is the codec's segment decoder without decodeSegment's
// format and fingerprint gates.
func decodeSegmentBody(data []byte) (*segmentFile, error) {
	var sf segmentFile
	err := decode(data, func(d *decoder) { d.segmentFile(&sf) })
	return &sf, err
}

func decodeRecordBody(data []byte) (*journalRecord, error) {
	var rec journalRecord
	err := decode(data, func(d *decoder) { d.record(&rec) })
	return &rec, err
}

// reversedKeys rewrites a JSON document with every object's keys in
// descending order, never the order the encoder writes them in.
func reversedKeys(t testing.TB, data []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	var emit func(v any)
	emit = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			slices.Reverse(keys)
			b.WriteByte('{')
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(',')
				}
				kb, _ := json.Marshal(k)
				b.Write(kb)
				b.WriteByte(':')
				emit(x[k])
			}
			b.WriteByte('}')
		case []any:
			b.WriteByte('[')
			for i, e := range x {
				if i > 0 {
					b.WriteByte(',')
				}
				emit(e)
			}
			b.WriteByte(']')
		case json.Number:
			b.WriteString(string(x))
		default:
			vb, _ := json.Marshal(x)
			b.Write(vb)
		}
	}
	emit(v)
	return b.Bytes()
}

// spelledOut is data re-spaced: indented, plus a leading and trailing run
// of every whitespace byte JSON allows.
func spelledOut(t testing.TB, data []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(" \r\n\t")
	if err := json.Indent(&b, data, "\r", " \t"); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n\t \r")
	return b.Bytes()
}

// checkSegmentCodec asserts, for one segment file value, that the encoder
// writes json.Marshal's bytes and that the decoder reads those bytes (and
// their re-spaced and key-reordered forms) into json.Unmarshal's value.
func checkSegmentCodec(t testing.TB, fp Fingerprint, deltas []*Delta) {
	t.Helper()
	want, jerr := json.Marshal(segmentFile{Format: Format, Fingerprint: fp, Deltas: deltas})
	got, err := encodeSegment(fp, deltas)
	if (err != nil) != (jerr != nil) {
		t.Fatalf("encodeSegment error %v, json.Marshal error %v", err, jerr)
	}
	if jerr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeSegment differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	for _, body := range [][]byte{want, spelledOut(t, want), reversedKeys(t, want)} {
		sf, err := decodeSegmentBody(body)
		if err != nil {
			t.Fatalf("codec refused %s: %v", body, err)
		}
		var ref segmentFile
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		if !sameDecoded(sf, &ref) {
			t.Fatalf("codec decoded %s\nas %+v\nwant %+v", body, sf, &ref)
		}
	}
}

// checkRecordCodec is checkSegmentCodec for one journal record, through the
// CRC frame.
func checkRecordCodec(t testing.TB, rec *journalRecord) {
	t.Helper()
	want, jerr := json.Marshal(rec)
	line, err := encodeRecord(rec)
	if (err != nil) != (jerr != nil) {
		t.Fatalf("encodeRecord error %v, json.Marshal error %v", err, jerr)
	}
	if jerr != nil {
		return
	}
	if body := bytes.TrimSuffix(line, []byte("\n"))[9:]; !bytes.Equal(body, want) {
		t.Fatalf("encodeRecord differs from json.Marshal:\n got %s\nwant %s", body, want)
	}
	if _, err := decodeLine(bytes.TrimSuffix(line, []byte("\n"))); err != nil {
		t.Fatalf("decodeLine refused its own line %s: %v", line, err)
	}
	for _, body := range [][]byte{want, spelledOut(t, want), reversedKeys(t, want)} {
		got, err := decodeLine(fmt.Appendf(nil, "%08x %s", crc32.Checksum(body, crcTable), body))
		if err != nil {
			t.Fatalf("codec refused %s: %v", body, err)
		}
		var ref journalRecord
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		if !sameDecoded(got, &ref) {
			t.Fatalf("codec decoded %s\nas %+v\nwant %+v", body, got, &ref)
		}
	}
}

// codecCases are the hand-picked deltas: every nil-against-empty pairing,
// zero epochs, non-finite bounds.
func codecCases() map[string]*Delta {
	return map[string]*Delta{
		"zero":       {},
		"fuzzDelta":  fuzzDelta,
		"empty-hist": {Hist: []Tuple{}, Probes: []ProbeOp{}},
		"nil-ord":    {Hist: []Tuple{{ID: 1}, {ID: 2, Ord: []float64{}, Cat: map[string]string{}}}},
		"nil-rows":   {Probes: []ProbeOp{{}, {Rows: []uint32{}, Ranges: []ProbeRange{}, Cats: map[string]string{}}}},
		"bounds": {Probes: []ProbeOp{{Ranges: []ProbeRange{
			{Attr: 0, Lo: Bound(math.Inf(-1)), Hi: Bound(math.Inf(1)), LoOpen: true},
			{Attr: 3, Lo: Bound(math.NaN()), Hi: Bound(math.Copysign(0, -1)), HiOpen: true},
			{Attr: 4, Lo: 1e-7, Hi: 1e21},
		}, Rows: []uint32{math.MaxUint32}}}},
		"strings": {Hist: []Tuple{{ID: 7, Ord: []float64{1e-6, 9.999999e-7}, Cat: map[string]string{
			"a<b>&c": "\x00\x1f", `q"\`: "\xff\xfe", "sep": "\u2028\u2029", "\u00e9": "\U0001F600", "\x7f": "/",
		}}}},
		"extremes": {HistLo: math.MinInt64, HistHi: math.MaxInt64, Epoch: math.MinInt64, Queries: math.MaxInt64},
	}
}

func TestCodecMatchesEncodingJSON(t *testing.T) {
	cases := codecCases()
	var all []*Delta
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		d := cases[name]
		all = append(all, d)
		t.Run(name, func(t *testing.T) {
			checkSegmentCodec(t, testFP, []*Delta{d})
			checkRecordCodec(t, &journalRecord{Kind: "delta", Seq: 3, Delta: d})
		})
	}
	for _, name := range slices.Sorted(maps.Keys(legacyHeat)) {
		t.Run(name, func(t *testing.T) { checkLegacyHeat(t, legacyHeat[name]) })
	}
	checkSegmentCodec(t, testFP, all)
	checkSegmentCodec(t, testFP, []*Delta{nil, fuzzDelta})
	checkSegmentCodec(t, testFP, []*Delta{})
	checkSegmentCodec(t, Fingerprint{}, nil)
	for _, rec := range []*journalRecord{
		{Kind: "header", Format: Format, Fingerprint: &testFP},
		{Kind: "header", Format: Format, Fingerprint: &Fingerprint{Schema: []string{}}},
		{Kind: "segment", Seq: math.MaxUint64, File: "00000001-abc.seg", SHA256: strings.Repeat("ab", 32), Deltas: 2},
		{},
	} {
		checkRecordCodec(t, rec)
	}

	rng := randSource{rand.New(rand.NewSource(46))}
	for i := 0; i < 400; i++ {
		fp := genFingerprint(rng)
		deltas := make([]*Delta, rng.intn(4))
		for j := range deltas {
			deltas[j] = genDelta(rng)
		}
		checkSegmentCodec(t, fp, deltas)
		checkRecordCodec(t, &journalRecord{Kind: pickString(rng), Format: int(pickInt(rng)), Fingerprint: &fp})
		for _, d := range deltas {
			checkRecordCodec(t, &journalRecord{Kind: "delta", Seq: uint64(rng.intn(1 << 20)), Delta: d})
		}
	}
}

// legacyHeat holds values of a delta's "heat" member, which stores of this
// format generation carried while the engine persisted a request-heat sketch:
// a real capture, its empty and null forms, and shapes the sketch never
// wrote. The codec reads past any of them.
var legacyHeat = map[string]string{
	"heat":        `{"halfLifeSec":300,"attrs":[{"attr":1,"cells":[{"cell":3,"heat":0.75,"lo":1e-9,"hi":2,"votes":4}]},{"attr":2,"cells":null},{"attr":4,"cells":[]}]}`,
	"heat-empty":  `{}`,
	"heat-null":   `null`,
	"heat-shapes": `[{"bogus":0},{"attrs":[{"cells":[{"heat":"1"}]}]},[],"\u00e9",true,false,-0.5e3]`,
}

// checkLegacyHeat asserts that a journal record and a segment file whose
// delta carries heat decode as encoding/json decodes them, and equal to the
// same delta without it.
func checkLegacyHeat(t *testing.T, heat string) {
	t.Helper()
	line, err := encodeRecord(&journalRecord{Kind: "delta", Seq: 3, Delta: fuzzDelta})
	if err != nil {
		t.Fatal(err)
	}
	clean := bytes.TrimSuffix(line, []byte("\n"))[9:]
	body := bytes.Replace(clean, []byte(`"delta":{`), []byte(`"delta":{"heat":`+heat+`,`), 1)
	checkDecodesLikeJSON(t, body)
	got, err := decodeRecordBody(body)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := decodeRecordBody(clean)
	if !sameDecoded(got, want) {
		t.Fatalf("codec decoded %s\nas %+v\nwant %+v", body, got, want)
	}

	seg, err := encodeSegment(testFP, []*Delta{fuzzDelta, {}})
	if err != nil {
		t.Fatal(err)
	}
	heated := bytes.ReplaceAll(seg, []byte(`"queries":`), []byte(`"heat":`+heat+`,"queries":`))
	sf, err := decodeSegmentBody(heated)
	if err != nil {
		t.Fatalf("codec refused %s: %v", heated, err)
	}
	var ref segmentFile
	if err := json.Unmarshal(heated, &ref); err != nil {
		t.Fatal(err)
	}
	wantSF, _ := decodeSegmentBody(seg)
	if !sameDecoded(sf, &ref) || !sameDecoded(sf, wantSF) {
		t.Fatalf("codec decoded %s\nas %+v\nwant %+v", heated, sf, wantSF)
	}
}

// A value json.Marshal cannot encode (a non-finite float outside a bound)
// is an error from the codec too.
func TestCodecRefusesWhatJSONCannotEncode(t *testing.T) {
	for _, d := range []*Delta{
		{Hist: []Tuple{{ID: 1, Ord: []float64{math.NaN()}}}},
		{Hist: []Tuple{{ID: 1, Ord: []float64{1, math.Inf(-1)}}}},
	} {
		if _, err := json.Marshal(d); err == nil {
			t.Fatalf("precondition: json.Marshal encoded %+v", d)
		}
		if _, err := encodeSegment(testFP, []*Delta{d}); err == nil {
			t.Fatalf("encodeSegment encoded %+v", d)
		}
		if _, err := encodeRecord(&journalRecord{Kind: "delta", Delta: d}); err == nil {
			t.Fatalf("encodeRecord encoded %+v", d)
		}
	}
}

// The decoder reads every escape JSON defines, in keys and values, the way
// encoding/json does; a map's repeated key keeps the last value.
func TestCodecDecodesEscapesAndRepeatedMapKeys(t *testing.T) {
	for _, body := range []string{
		`{"kind":"delta","delta":{"histLo":0,"histHi":1,"hist":[{"id":1,"ord":[1],"cat":{"shape":"\"\\\/\b\f\n\r\t\u00e9\u2028\ud83d\ude00\u003c\uABCD"}}],"queries":0}}`,
		`{"kind":"delta","delta":{"histLo":0,"histHi":1,"hist":[{"id":1,"ord":[1],"cat":{"a":"1","a":"2","\ufffd":"x","\ufffd":"y"}}],"queries":0}}`,
		`{"kind":"delta","delta":{"histLo":-0,"histHi":0,"probes":[{"ranges":[{"attr":0,"lo":-0,"hi":1E+2,"loOpen":false}],"rows":[0,4294967295]}],"queries":0}}`,
		`{"kind":"d\u00e9lta", "seq" : 18446744073709551615}`,
		`{"kind":"header","fingerprint":null,"format":4}`,
		`{"kind":"delta","delta":null}`,
		`{"kind":"delta","delta":{"hist":null,"probes":null,"heat":null,"histLo":0,"histHi":0,"queries":0}}`,
	} {
		checkDecodesLikeJSON(t, []byte(body))
	}
}

func checkDecodesLikeJSON(t *testing.T, body []byte) {
	t.Helper()
	got, err := decodeRecordBody(body)
	if err != nil {
		t.Fatalf("codec refused %s: %v", body, err)
	}
	var ref journalRecord
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatalf("precondition: json.Unmarshal refused %s: %v", body, err)
	}
	if !sameDecoded(got, &ref) {
		t.Fatalf("codec decoded %s\nas %+v\nwant %+v", body, got, &ref)
	}
}

// Everything outside the encoder's language that the codec might be asked
// to read is refused, including what encoding/json would quietly accept
// (unknown and repeated keys, case-folded keys, null for a number).
func TestCodecRefusesMalformedBodies(t *testing.T) {
	d := func(s string) string { return `{"kind":"delta","delta":{` + s + `}}` }
	p := func(s string) string { return d(`"probes":[{` + s + `}]`) }
	for _, body := range []string{
		``, `null`, `[]`, `"delta"`, `{`, `{"kind":"delta"`, `{"kind":"delta",}`, `{"kind":"delta"} x`,
		`{"kind":"delta"}{}`, `{"kind" "delta"}`, `{kind:"delta"}`, `{"kind":'delta'}`,
		`{"kind":"delta","bogus":1}`, `{"Kind":"delta"}`, `{"kind":"delta","kind":"delta"}`,
		`{"kind":5}`, `{"kind":null}`, `{"kind":"\ud800"}`, `{"kind":"\ud800A"}`, `{"kind":"\ud800\u0041"}`, `{"kind":"\udc00\ud800"}`, `{"kind":"\x"}`,
		"{\"kind\":\"a\x01\"}", "{\"kind\":\"\xff\"}", `{"kind":"\u12"}`, `{"kind":"abc`,
		`{"seq":-1}`, `{"seq":1.5}`, `{"seq":1e2}`, `{"seq":18446744073709551616}`, `{"seq":null}`, `{"seq":"1"}`,
		`{"format":01}`, `{"format":-}`, `{"format":1.}`, `{"format":.5}`, `{"format":+1}`, `{"format":- 1}`, `{"format":--1}`,
		`{"fingerprint":{"schema":["a"],"schema":[]}}`, `{"fingerprint":{"schema":[1]}}`, `{"fingerprint":[]}`,
		d(`"histLo":"1"`), d(`"histLo":null`), d(`"queries":9223372036854775808`), d(`"epoch":-9223372036854775809`),
		d(`"hist":[{"id":1,"ord":[1,]}]`), d(`"hist":[{"id":1,"ord":[null]}]`), d(`"hist":[{"id":1,"ord":[1e400]}]`),
		d(`"hist":[{"id":1,"cat":{"a":null}}]`), d(`"hist":[{"id":1,"cat":{"a":1}}]`), d(`"hist":[{"id":1,"cat":[]}]`),
		d(`"hist":{}`), d(`"heat":{"attrs":[}`), d(`"heat":{`), d(`"heat":[1,]`), d(`"heat":{"a" 1}`),
		d(`"heat":nul`), d(`"heat":"\x"`), d(`"heat":01`), d(`"heat":null,"heat":null`), d(`"heat":{},"heat":{}`),
		p(`"rows":[-1]`), p(`"rows":[4294967296]`), p(`"rows":[1.0]`), p(`"rows":[1e0]`), p(`"rows":{}`),
		p(`"overflow":1`), p(`"overflow":tru`), p(`"overflow":null`), p(`"crawled":"true"`),
		p(`"ranges":[{"lo":"inf"}]`), p(`"ranges":[{"lo":"Infinity"}]`), p(`"ranges":[{"lo":"+Inf "}]`),
		p(`"ranges":[{"hi":null}]`), p(`"ranges":[{"lo":1e999}]`), p(`"ranges":[{"attr":0,"attr":1}]`),
	} {
		if rec, err := decodeRecordBody([]byte(body)); err == nil {
			t.Errorf("codec accepted %q as %+v", body, rec)
		}
	}
	for _, body := range []string{
		`{"format":4,"fingerprint":null,"deltas":[]}`, `{"format":4,"deltas":[],"deltas":[]}`,
		`{"format":4,"deltas":[{"histLo":0,"extra":1}]}`, `{"format":4,"deltas":{}}`,
	} {
		if sf, err := decodeSegmentBody([]byte(body)); err == nil {
			t.Errorf("codec accepted segment %q as %+v", body, sf)
		}
	}
}

// withoutHeat returns body with every delta's legacy "heat" member cut out,
// and how many it cut. The fixture's encoder wrote the member after "probes",
// never first, so each starts with a comma; the value's extent is measured
// by encoding/json.
func withoutHeat(t *testing.T, body []byte) ([]byte, int) {
	t.Helper()
	marker := []byte(`,"heat":`)
	out, n := body, 0
	for {
		i := bytes.Index(out, marker)
		if i < 0 {
			return out, n
		}
		dec := json.NewDecoder(bytes.NewReader(out[i+len(marker):]))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		out = slices.Concat(out[:i], out[i+len(marker)+int(dec.InputOffset()):])
		n++
	}
}

// TestParentStoreFilesStayIdentical: every file of a store written before
// the codec (testdata/parent-store) decodes as encoding/json decodes it, and
// re-encodes to the same bytes, less the request-heat captures its deltas
// carry, which the codec reads past and no longer writes.
func TestParentStoreFilesStayIdentical(t *testing.T) {
	dir := filepath.Join("testdata", "parent-store")
	journal, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	heats := 0
	var fp Fingerprint
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := decodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("codec refused journal line %s: %v", line, err)
		}
		var ref journalRecord
		if err := json.Unmarshal(line[9:len(line)-1], &ref); err != nil {
			t.Fatal(err)
		}
		if !sameDecoded(rec, &ref) {
			t.Fatalf("codec decoded %s as %+v, encoding/json as %+v", line, rec, &ref)
		}
		want := line
		if body, n := withoutHeat(t, line[9:len(line)-1]); n > 0 {
			want = fmt.Appendf(nil, "%08x %s\n", crc32.Checksum(body, crcTable), body)
			heats += n
		}
		if again, err := encodeRecord(rec); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("journal line re-encodes as %s (%v), want %s", again, err, want)
		}
		kinds[rec.Kind]++
		switch rec.Kind {
		case "header":
			fp = *rec.Fingerprint
		case "segment":
			body, err := os.ReadFile(filepath.Join(dir, "segments", rec.File))
			if err != nil {
				t.Fatal(err)
			}
			sf, err := decodeSegment(body, fp)
			if err != nil {
				t.Fatalf("codec refused segment %s: %v", rec.File, err)
			}
			var ref segmentFile
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatal(err)
			}
			if !sameDecoded(sf, &ref) {
				t.Fatalf("codec decoded segment %s as %+v, encoding/json as %+v", rec.File, sf, &ref)
			}
			want, n := withoutHeat(t, body)
			heats += n
			if again, err := encodeSegment(fp, sf.Deltas); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("segment %s does not re-encode to its own bytes (%v)", rec.File, err)
			}
		}
	}
	if kinds["header"] != 1 || kinds["delta"] < 2 || kinds["segment"] < 1 {
		t.Fatalf("fixture journal holds %v, want a header, 2 inline deltas and a segment commit", kinds)
	}
	if heats < 2 {
		t.Fatalf("fixture carries %d heat members, want one in the segment and one in the journal", heats)
	}
}

// Decoded slices share backing arrays; each is capacity-limited, so an
// append to one reallocates instead of overwriting its neighbour.
func TestDecodedSlicesAreCapacityLimited(t *testing.T) {
	body, err := encodeSegment(testFP, []*Delta{fuzzDelta, fuzzDelta})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := decodeSegment(body, testFP)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sf.Deltas {
		for _, tp := range d.Hist {
			if cap(tp.Ord) != len(tp.Ord) {
				t.Fatalf("ord %v has capacity %d", tp.Ord, cap(tp.Ord))
			}
		}
		for _, p := range d.Probes {
			if cap(p.Rows) != len(p.Rows) || cap(p.Ranges) != len(p.Ranges) {
				t.Fatalf("probe rows %v (capacity %d), ranges %v (capacity %d)", p.Rows, cap(p.Rows), p.Ranges, cap(p.Ranges))
			}
		}
	}
	first := sf.Deltas[0].Hist[0].Ord
	_ = append(first, -1)
	if !slices.Equal(sf.Deltas[0].Hist[1].Ord, fuzzDelta.Hist[1].Ord) {
		t.Fatal("an append to one decoded slice changed the next")
	}
}
