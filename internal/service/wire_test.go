package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hidden"
	"repro/internal/jsonwire"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// wireSource drives the wire generators: a seeded PRNG for the table test,
// the fuzzer's bytes for FuzzWireCodec.
type wireSource interface {
	intn(n int) int
}

type wireRand struct{ *rand.Rand }

func (r wireRand) intn(n int) int { return r.Intn(n) }

// wireBytes reads choices from fuzz input; past its end every choice is 0.
type wireBytes struct{ b []byte }

func (s *wireBytes) intn(n int) int {
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

// esc is a JSON \u escape of four hex digits, spelled without writing the
// backslash-u pair into this file.
func esc(hex string) string { return "\x5cu" + hex }

// Spellings encoding/json folds to one struct field: U+017F (long s) folds
// with s, U+212A (Kelvin sign) with k.
const (
	longS  = "\xc5\xbf"
	kelvin = "\xe2\x84\xaa"
)

// wireFloats sit on both sides of encoding/json's float-format switches
// (1e-6 and 1e21) and include -0, subnormals and the extremes.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 5123.45, -7.25e5,
	1e-6, math.Nextafter(1e-6, 0), -1e-7, 1e21, math.Nextafter(1e21, 0), 1e20,
	5e-324, math.MaxFloat64, -math.MaxFloat64, 1e100, float64(1 << 53),
}

// wireStrings carry everything encoding/json escapes (HTML characters,
// quotes, control bytes, U+2028/U+2029), invalid UTF-8 (written as U+FFFD)
// and the attribute names the schema knows.
var wireStrings = []string{
	"", "Round", "a<b>&c", `quo"te\back/slash`, "\x00\x01\x1f", "\b\f\n\r\t", "\x7f",
	"\xff", "ok\xfe\xffok", "\xed\xa0\x80", "line\xe2\x80\xa8sep\xe2\x80\xa9",
	"\xc3\xa9\xe6\x97\xa5\xf0\x9f\x98\x80", "Price", "Carat", "Depth", "Shape", "Cut",
}

func genFloat(s wireSource) float64 {
	if s.intn(4) == 0 {
		return float64(s.intn(1<<16)) / float64(1+s.intn(64))
	}
	return wireFloats[s.intn(len(wireFloats))]
}

func genString(s wireSource) string { return wireStrings[s.intn(len(wireStrings))] }

func genInt(s wireSource) int64 {
	switch s.intn(6) {
	case 0:
		return 0
	case 1:
		return []int64{math.MaxInt64, math.MinInt64, -1, 1 << 40}[s.intn(4)]
	default:
		return int64(s.intn(1<<16)) - 1000
	}
}

func genStrMap(s wireSource) map[string]string {
	switch s.intn(4) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	m := map[string]string{}
	for n := 1 + s.intn(4); n > 0; n-- {
		m[genString(s)] = genString(s)
	}
	return m
}

func genTupleJSON(s wireSource) TupleJSON {
	t := TupleJSON{ID: int(genInt(s)), Score: genFloat(s), Cat: genStrMap(s)}
	if s.intn(30) == 0 {
		t.Score = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[s.intn(3)]
	}
	if s.intn(8) > 0 {
		t.Ord = map[string]float64{}
		for n := s.intn(6); n > 0; n-- {
			t.Ord[genString(s)] = genFloat(s)
		}
	}
	return t
}

func genRerankResponse(s wireSource) *RerankResponse {
	r := &RerankResponse{Exhausted: s.intn(2) == 0, QueriesIssued: genInt(s), EngineQueries: genInt(s), Epoch: genInt(s)}
	if n := s.intn(6) - 1; n >= 0 {
		r.Tuples = make([]TupleJSON, n)
		for i := range r.Tuples {
			r.Tuples[i] = genTupleJSON(s)
		}
	}
	return r
}

func genErrorInfo(s wireSource) *ErrorInfo {
	if s.intn(3) == 0 {
		return nil
	}
	info := &ErrorInfo{Code: genString(s), Message: genString(s)}
	if s.intn(2) == 0 {
		info.RetryAfterSec = genInt(s)
	}
	return info
}

func genBatchResponse(s wireSource) *BatchResponse {
	r := &BatchResponse{QueriesIssued: genInt(s), EngineQueries: genInt(s)}
	if n := s.intn(5) - 1; n >= 0 {
		r.Items = make([]BatchItem, n)
		for i := range r.Items {
			r.Items[i] = BatchItem{Status: int(genInt(s)), Error: genErrorInfo(s)}
			if s.intn(2) == 0 {
				r.Items[i].Response = genRerankResponse(s)
			}
		}
	}
	return r
}

func genStreamEvent(s wireSource) *StreamEvent {
	ev := &StreamEvent{
		CumQueries: genInt(s), Done: s.intn(2) == 0, Exhausted: s.intn(2) == 0,
		Error: genErrorInfo(s), Status: int(genInt(s)) * s.intn(2),
	}
	if s.intn(2) == 0 {
		ev.QueriesIssued, ev.EngineQueries = genInt(s), genInt(s)
	}
	if s.intn(2) == 0 {
		tj := genTupleJSON(s)
		ev.Tuple = &tj
	}
	return ev
}

// checkWireEncoding asserts that writeWire answers v with exactly the bytes
// json.Encoder.Encode writes for it, or, where Encode refuses v, with a 500
// envelope.
func checkWireEncoding(t *testing.T, v wireValue) {
	t.Helper()
	var want bytes.Buffer
	refErr := json.NewEncoder(&want).Encode(v)
	rec := httptest.NewRecorder()
	writeWire(rec, http.StatusOK, v)
	if refErr != nil {
		var env errorEnvelope
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
			env.Error == nil || env.Error.Code != ErrCodeInternal {
			t.Fatalf("encoding/json refuses %+v (%v); writeWire answered %d %s", v, refErr, rec.Code, rec.Body)
		}
		return
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("writeWire wrote %d\n%q\nencoding/json writes\n%q", rec.Code, rec.Body, want.Bytes())
	}
}

// bodyGen writes request and search-answer bodies in all the forms
// encoding/json reads, and some it refuses: keys in any case-folding,
// escaped or unknown; repeated members; null where a value belongs; strings
// with escapes, surrogates and invalid UTF-8; wrong types now and then;
// whitespace anywhere; bytes after the value; a cut-off end.
type bodyGen struct {
	s wireSource
	b strings.Builder
}

func (g *bodyGen) pick(opts ...string) { g.b.WriteString(opts[g.s.intn(len(opts))]) }

func (g *bodyGen) ws() {
	if g.s.intn(4) == 0 {
		g.pick(" ", "\n", "\t ", "\r\n  ")
	}
}

// key writes a member key that names field name in some spelling, or an
// unknown key.
func (g *bodyGen) key(name string) {
	k := name
	switch g.s.intn(10) {
	case 0:
		k = strings.ToUpper(name)
	case 1:
		k = strings.NewReplacer("s", longS, "k", kelvin, "S", longS, "K", kelvin).Replace(name)
	case 2:
		k = esc(fmt.Sprintf("%04x", name[0])) + name[1:]
	case 3:
		k = strings.ToUpper(name[:1]) + name[1:]
	case 4:
		k = name + "x"
	}
	g.ws()
	g.b.WriteString(`"` + k + `"`)
	g.ws()
	g.b.WriteByte(':')
	g.ws()
}

// object writes an object whose members come from fields (name → value
// writer) in random order, some repeated, with unknown members between.
func (g *bodyGen) object(fields map[string]func()) {
	if g.s.intn(10) == 0 {
		g.pick("null", "[]", "1")
		return
	}
	names := make([]string, 0, len(fields))
	for n := range fields {
		names = append(names, n)
	}
	slices.Sort(names)
	g.b.WriteByte('{')
	for i, n := 0, g.s.intn(len(names)+3); i < n; i++ {
		if i > 0 {
			g.b.WriteByte(',')
		}
		if g.s.intn(5) == 0 {
			g.key("zz" + fmt.Sprint(g.s.intn(3)))
			g.anyValue(3)
		} else {
			name := names[g.s.intn(len(names))]
			g.key(name)
			fields[name]()
		}
		g.ws()
	}
	g.b.WriteByte('}')
}

func (g *bodyGen) array(elem func()) {
	switch g.s.intn(8) {
	case 0:
		g.b.WriteString("null")
		return
	case 1:
		g.b.WriteString("[]")
		return
	case 2:
		g.b.WriteString("{}")
		return
	}
	g.b.WriteByte('[')
	for i, n := 0, 1+g.s.intn(4); i < n; i++ {
		if i > 0 {
			g.b.WriteByte(',')
		}
		g.ws()
		elem()
		g.ws()
	}
	g.b.WriteByte(']')
}

func (g *bodyGen) str() {
	switch g.s.intn(16) {
	case 0:
		g.b.WriteString("null")
	case 1:
		g.b.WriteString(`"a` + esc("d800") + `b"`)
	case 2:
		g.b.WriteString(`"` + esc("d83d") + esc("de00") + esc("DC00") + esc("d800") + esc("0041") + `"`)
	case 3:
		g.b.WriteString("\"\xff\xfeok\xed\xa0\x80\"")
	case 4:
		g.b.WriteString(`"` + esc("003c") + `\/\t\"\\"`)
	case 5:
		g.pick("7", "true", "[]")
	default:
		q, _ := json.Marshal(genString(g.s))
		g.b.Write(q)
	}
}

func (g *bodyGen) integer() {
	g.pick("3", "-0", "0", "10", "1e2", "1.5", "null", "-9223372036854775808", "9223372036854775808", `"3"`, "5", "1")
}

func (g *bodyGen) number() {
	g.pick("1", "-0.5", "2E-3", "1e308", "1e400", "null", "0", "123456789", "-1e-7", "true", "7000", "0.25")
}

func (g *bodyGen) boolean() { g.pick("true", "false", "null", `"true"`, "true") }

func (g *bodyGen) strMap() {
	switch g.s.intn(6) {
	case 0:
		g.b.WriteString("null")
		return
	case 1:
		g.b.WriteString("{}")
		return
	case 2:
		g.b.WriteString("[]")
		return
	}
	g.b.WriteByte('{')
	for i, n := 0, 1+g.s.intn(3); i < n; i++ {
		if i > 0 {
			g.b.WriteByte(',')
		}
		g.ws()
		g.pick(`"Shape"`, `"Cut"`, `"a"`, `"`+esc("0061")+`"`, "\"\xff\"", `"`+esc("fffd")+`"`)
		g.b.WriteByte(':')
		g.str()
	}
	g.b.WriteByte('}')
}

// anyValue writes an arbitrary value, as an unknown member carries.
func (g *bodyGen) anyValue(depth int) {
	n := 6
	if depth > 0 {
		n = 8
	}
	switch g.s.intn(n) {
	case 0:
		g.number()
	case 1:
		g.str()
	case 2, 3:
		g.pick("true", "false", "null", `""`, "-0", "1E+2")
	case 4:
		g.pick("[]", "{}", `{"a":[1,{"b":null}]}`, `[[[]]]`)
	case 5:
		g.pick(`"x"`, "0")
	case 6:
		g.array(func() { g.anyValue(depth - 1) })
	case 7:
		g.b.WriteByte('{')
		g.key("k")
		g.anyValue(depth - 1)
		g.b.WriteByte('}')
	}
}

func (g *bodyGen) rankingSpec() {
	g.object(map[string]func(){
		"kind":    func() { g.pick(`"linear"`, `"single"`, `"ratio"`, `"LINEAR"`, "null") },
		"attrs":   func() { g.array(g.str) },
		"weights": func() { g.array(g.number) },
		"desc":    g.boolean,
	})
}

func (g *bodyGen) rangeSpec() {
	g.object(map[string]func(){
		"attr":    g.str,
		"min":     g.number,
		"max":     g.number,
		"minOpen": g.boolean,
		"maxOpen": g.boolean,
	})
}

func (g *bodyGen) rerankRequest() {
	g.object(map[string]func(){
		"ranges":    func() { g.array(g.rangeSpec) },
		"filters":   g.strMap,
		"ranking":   g.rankingSpec,
		"h":         g.integer,
		"algorithm": g.str,
	})
}

func (g *bodyGen) batchRequest() {
	g.object(map[string]func(){
		"requests": func() { g.array(g.rerankRequest) },
	})
}

func (g *bodyGen) searchAnswer() {
	g.object(map[string]func(){
		"tuples": func() {
			g.array(func() {
				g.object(map[string]func(){
					"id": g.integer,
					"ord": func() {
						if g.s.intn(6) == 0 {
							g.pick("null", "{}", "[]")
							return
						}
						g.b.WriteByte('{')
						for i, n := 0, 1+g.s.intn(5); i < n; i++ {
							if i > 0 {
								g.b.WriteByte(',')
							}
							g.pick(`"Price"`, `"Carat"`, `"Depth"`, `"Table"`, `"LWRatio"`, `"Shape"`, `"Bogus"`, `"price"`)
							g.b.WriteByte(':')
							g.number()
						}
						g.b.WriteByte('}')
					},
					"cat": g.strMap,
				})
			})
		},
		"overflow": g.boolean,
	})
}

// body writes one value with fill, then what may follow it, and now and
// then cuts the result short.
func (g *bodyGen) body(fill func()) []byte {
	g.b.Reset()
	g.ws()
	fill()
	g.ws()
	if g.s.intn(4) == 0 {
		g.pick("x", "{}", "]", "\xff", " garbage", "\n{\"h\":")
	}
	out := []byte(g.b.String())
	if g.s.intn(12) == 0 && len(out) > 0 {
		out = out[:g.s.intn(len(out))]
	}
	return out
}

// wireServer is the server whose decodeBody the decoding checks go through.
var wireServer = sync.OnceValue(func() *Server {
	ds := dataset.BlueNile(7, 50)
	return NewServer(ds.DB(), len(ds.Tuples))
})

func decodeThroughBody(body []byte, v any) bool {
	r := httptest.NewRequest(http.MethodPost, "/v1/upstreams/default/rerank", bytes.NewReader(body))
	return wireServer().decodeBody(httptest.NewRecorder(), r, v)
}

// checkRequestDecoding asserts that decodeBody accepts body as a rerank and
// as a batch request exactly when json.Decoder.Decode does, into an equal
// value.
func checkRequestDecoding(t *testing.T, body []byte) {
	t.Helper()
	var got, want RerankRequest
	ok, refErr := decodeThroughBody(body, &got), json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if ok != (refErr == nil) {
		t.Fatalf("rerank request %q: wire decoder ok=%v, encoding/json error %v", body, ok, refErr)
	}
	if ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("rerank request %q decoded as\n%#v\nencoding/json decodes\n%#v", body, got, want)
	}
	var gotB, wantB BatchRequest
	ok, refErr = decodeThroughBody(body, &gotB), json.NewDecoder(bytes.NewReader(body)).Decode(&wantB)
	if ok != (refErr == nil) {
		t.Fatalf("batch request %q: wire decoder ok=%v, encoding/json error %v", body, ok, refErr)
	}
	if ok && !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("batch request %q decoded as\n%#v\nencoding/json decodes\n%#v", body, gotB, wantB)
	}
}

// refAnswer is what RemoteDB made of a search answer before its decoder:
// encoding/json into a SearchResponse, then each WireTuple's ord map laid
// into a row by attribute index.
func refAnswer(schema *types.Schema, body []byte) (hidden.Result, error) {
	var sr SearchResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sr); err != nil {
		return hidden.Result{}, err
	}
	out := hidden.Result{Overflow: sr.Overflow}
	for _, wt := range sr.Tuples {
		t := types.Tuple{ID: wt.ID, Ord: make([]float64, schema.Len()), Cat: wt.Cat}
		for name, v := range wt.Ord {
			i := schema.Index(name)
			if i < 0 {
				return hidden.Result{}, fmt.Errorf("remote tuple %d has unknown attribute %q", wt.ID, name)
			}
			t.Ord[i] = v
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

var wireRemote = sync.OnceValue(func() *RemoteDB {
	return &RemoteDB{schema: dataset.BlueNile(7, 50).Schema}
})

// checkAnswerDecoding asserts that RemoteDB's answer decoder gives what
// encoding/json and the old conversion gave: the same rows, or an error.
func checkAnswerDecoding(t *testing.T, body []byte) {
	t.Helper()
	r := wireRemote()
	got, err := r.decodeAnswer(body, false)
	want, refErr := refAnswer(r.schema, body)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("search answer %q: decoder error %v, reference error %v", body, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("search answer %q decoded as\n%#v\nreference\n%#v", body, got, want)
	}
}

// TestWireCodecMatchesEncodingJSON: the serving wire's encoder writes
// json.Encoder.Encode's bytes for every response type, and its decoders
// accept exactly what json.Decoder.Decode accepts, into equal values — for
// table cases and for generated values and bodies.
func TestWireCodecMatchesEncodingJSON(t *testing.T) {
	one := 1.5
	for _, v := range []wireValue{
		&RerankResponse{},
		&RerankResponse{Tuples: []TupleJSON{}},
		&RerankResponse{Tuples: []TupleJSON{{ID: 3, Score: 1e21, Ord: map[string]float64{"Price": 5123.45, "Carat": 1e-7, "Depth": 0.61}, Cat: map[string]string{"Shape": "Round", "Cut": "a<b>&c"}}}, Exhausted: true, QueriesIssued: 4, EngineQueries: 9, Epoch: 2},
		&RerankResponse{Tuples: []TupleJSON{{ID: -1, Score: math.Copysign(0, -1), Cat: map[string]string{}}}},
		&RerankResponse{Tuples: []TupleJSON{{Score: math.Inf(1), Ord: map[string]float64{"Price": 1}}}},
		&RerankResponse{Tuples: []TupleJSON{{Ord: map[string]float64{"Price": math.NaN()}}}},
		&BatchResponse{},
		&BatchResponse{Items: []BatchItem{{Status: 200, Response: &RerankResponse{}}, {Status: 400, Error: &ErrorInfo{Code: "bad_request", Message: "unknown ordinal attribute \"\xff<\""}}}, QueriesIssued: 3},
		&StreamEvent{},
		&StreamEvent{Tuple: &TupleJSON{ID: 1, Score: one, Ord: map[string]float64{}}, CumQueries: 2},
		&StreamEvent{Done: true, Exhausted: true, CumQueries: 5, QueriesIssued: 5, EngineQueries: 11},
		&StreamEvent{Done: true, Status: 429, Error: &ErrorInfo{Code: "upstream_rate_limited", Message: "x", RetryAfterSec: 3}},
		errorEnvelope{},
		errorEnvelope{Error: &ErrorInfo{Code: ErrCodeCapacity, Message: "line\xe2\x80\xa8sep & \x00", RetryAfterSec: 1}},
	} {
		checkWireEncoding(t, v)
	}

	for _, body := range []string{
		`{"ranking":{"kind":"linear","attrs":["Price","Carat"],"weights":[1,1]},"h":5}`,
		`{"ranges":[{"attr":"Price","min":1000,"max":5000,"maxOpen":true}],"filters":{"Shape":"Round"},"ranking":{"kind":"single","attrs":["Depth"],"desc":true},"algorithm":"binary"}`,
		`{"H":3,"RANKING":{"Kind":"single","ATTRS":["Depth"]},"Algorithm":"ta"}`,
		`{"ranking":{"de` + longS + `c":true,"` + kelvin + `ind":"single","attr` + longS + `":["Depth"]},"filter` + longS + `":{"a":"b"}}`,
		`{"` + esc("0068") + `":4,"unknown":{"deep":[1,2,{"x":null}]},"h2":9}`,
		`{"h":3,"h":null,"algorithm":null,"ranges":null,"filters":null,"ranking":null}`,
		`{"filters":{"a":"1"},"filters":{"b":"2","a":null}}`,
		`{"ranges":[{"attr":"Price","min":1},{"attr":"Carat"}],"ranges":[{"max":2}]}`,
		`{"ranges":[{"attr":"Price","min":1},{"attr":"Carat"}],"ranges":[],"ranges":[{"max":2}]}`,
		`{"ranking":{"attrs":["a","b","c"]},"ranking":{"attrs":["d",null]}}`,
		`{"ranking":{"weights":[1,2]},"ranking":{"weights":[null,null,3]}}`,
		`{"algorithm":"\xff\xfe","filters":{"\xff":"\xed\xa0\x80"}}`,
		`{"algorithm":"` + esc("d800") + esc("0041") + esc("dc00") + esc("D83D") + esc("DE00") + `"}`,
		`{"requests":[{"h":1,"algorithm":"x","filters":{"a":"b"}},{"h":2}],"requests":[{"h":3,"filters":{"c":"d"}}]}`,
		`{"requests":[{"h":1}],"requests":[],"requests":[{}, {}]}`,
		`{"requests":[null,{"h":2}]}`,
		`{"h":1} trailing bytes`, `{"h":1}{"h":2}`, "{\"h\":1}\xff", `null`, ` null x`, `{}`,
		``, ` `, `{`, `{"h":`, `{"h":1`, `{"h":1,}`, `{"h":01}`, `{"h":1.0}`, `{"h":1e2}`, `{"h":"1"}`, `{"h":true}`,
		`{"h":9223372036854775808}`, `{"h":-9223372036854775808}`, `{"h":-0}`, `{"ranking":[]}`, `{"ranges":{}}`,
		`{"filters":{"a":1}}`, `{"ranking":{"weights":[1e400]}}`, `{"ranking":{"desc":"true"}}`, `[]`, `"h"`, `1`, `true`,
		`{"a":"` + esc("12") + `"}`, `{"a":"` + esc("zzzz") + `"}`, `{"a":"\x"}`, "{\"a\":\"\x01\"}", `{"a":tru}`, `{"a":nul`,
		`{"a":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
		`{"a":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
	} {
		checkRequestDecoding(t, []byte(body))
	}

	for _, body := range []string{
		`{"tuples":[{"id":1,"ord":{"Price":5,"Carat":1.5},"cat":{"Shape":"Round"}}],"overflow":true}`,
		`{"tuples":null,"overflow":false}`, `{"tuples":[],"overflow":true}`, `{}`, `null`,
		`{"tuples":[{"id":1,"ord":{"Bogus":1}}]}`,
		`{"tuples":[{"id":1,"ord":{"Bogus":1},"ord":null}]}`,
		`{"tuples":[{"id":1,"ord":{"Bogus":1},"ord":{"Price":2}}]}`,
		`{"tuples":[{"id":1,"ord":{"Bogus":1}},{"id":2}],"tuples":[{"id":3}]}`,
		`{"tuples":[{"id":1,"ord":{"Bogus":1}}],"tuples":[],"tuples":[{"id":3}]}`,
		`{"tuples":[{"id":1,"ord":{"Price":1,"Carat":2}},{"id":2,"cat":{"a":"b"}}],"tuples":[{"ord":{"Price":7}},{"cat":{"c":"d"}}]}`,
		`{"tuples":[{"ID":4,"ORD":{"Price":null,"Shape":3},"Cat":null}],"Overflow":true}`,
		`{"tuples":[{"id":1,"ord":{"price":1}}]}`, `{"tuples":[{"id":1.5}]}`, `{"tuples":[{"ord":[]}]}`,
		`{"tuples":[null]}`, `{"tuples":{}}`, `{"tuples":[{"id":1}]} trailing`,
	} {
		checkAnswerDecoding(t, []byte(body))
	}

	rng := wireRand{rand.New(rand.NewSource(47))}
	g := &bodyGen{s: rng}
	for i := 0; i < 1500; i++ {
		checkWireEncoding(t, genRerankResponse(rng))
		checkWireEncoding(t, genBatchResponse(rng))
		checkWireEncoding(t, genStreamEvent(rng))
		checkWireEncoding(t, errorEnvelope{Error: genErrorInfo(rng)})
		checkRequestDecoding(t, g.body(g.rerankRequest))
		checkRequestDecoding(t, g.body(g.batchRequest))
		checkAnswerDecoding(t, g.body(g.searchAnswer))
	}
}

// FuzzWireCodec is TestWireCodecMatchesEncodingJSON's properties under the
// fuzzer: its bytes choose the response values and the request and answer
// bodies, and they also go through every decoder as they are.
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
	f.Add(bytes.Repeat([]byte{0xff, 0x13, 0x07}, 40))
	f.Add([]byte(`{"ranking":{"kind":"linear","attrs":["Price","Carat"],"weights":[1,1]},"h":5}`))
	f.Add([]byte(`{"tuples":[{"id":1,"ord":{"Price":5}}],"overflow":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestDecoding(t, data)
		checkAnswerDecoding(t, data)
		src := &wireBytes{b: data}
		g := &bodyGen{s: src}
		checkWireEncoding(t, genRerankResponse(src))
		checkWireEncoding(t, genBatchResponse(src))
		checkWireEncoding(t, genStreamEvent(src))
		checkRequestDecoding(t, g.body(g.rerankRequest))
		checkRequestDecoding(t, g.body(g.batchRequest))
		checkAnswerDecoding(t, g.body(g.searchAnswer))
	})
}

// TestWireBodyPastTheLimit: as with json.Decoder over a size-capped body, a
// body whose first value ends inside MaxBodyBytes is decoded whatever
// follows it, and one whose first value runs past the cap is 413.
func TestWireBodyPastTheLimit(t *testing.T) {
	srv := NewServerWithOptions(bnDB(t, 50), Options{Core: core.Options{N: 50}, MaxBodyBytes: 64})
	pad := strings.Repeat(" ", 200)
	for _, tc := range []struct {
		body string
		ok   bool
		code int
	}{
		{`{"h":3}` + pad + "junk", true, 0},
		{`null` + pad, true, 0},
		{pad + `{"h":3}`, false, http.StatusRequestEntityTooLarge},
		{`{"h":3,"pad":"` + pad + `"}`, false, http.StatusRequestEntityTooLarge},
		{strings.Repeat(" ", 60) + `12345678`, false, http.StatusRequestEntityTooLarge},
		{`{"h":x` + pad, false, http.StatusBadRequest},
	} {
		var req RerankRequest
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/upstreams/default/rerank", strings.NewReader(tc.body))
		ok := srv.decodeBody(rec, r, &req)
		if ok != tc.ok || (!ok && rec.Code != tc.code) {
			t.Errorf("body %.30q…: ok=%v status %d, want ok=%v status %d", tc.body, ok, rec.Code, tc.ok, tc.code)
		}
		if ok && req.H != 0 && req.H != 3 {
			t.Errorf("body %.30q…: h = %d", tc.body, req.H)
		}
	}
}

// TestSearchRequestOneWireForm: RemoteDB writes one probe as one request
// body, however its query was built — ranges in schema-attribute order,
// filters in name order — and the body is json.Marshal's for that order.
func TestSearchRequestOneWireForm(t *testing.T) {
	ds := dataset.BlueNile(7, 300)
	var (
		mu     sync.Mutex
		bodies [][]byte
	)
	inner := HiddenDBHandler(ds.DB())
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/search" {
			b, _ := io.ReadAll(r.Body)
			mu.Lock()
			bodies = append(bodies, b)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(b))
		}
		inner.ServeHTTP(w, r)
	}))
	defer upstream.Close()
	remote, err := DialRemote(upstream.URL, upstream.Client())
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Schema
	ranges := []struct {
		attr string
		iv   types.Interval
	}{
		{"Table", types.Interval{Lo: 1, Hi: 2, HiOpen: true}},
		{"Carat", types.Interval{Lo: 0.5, Hi: math.Inf(1), LoOpen: true}},
		{"Price", types.Interval{Lo: math.Inf(-1), Hi: 9000}},
		{"Depth", types.Interval{Lo: 0.5, Hi: 0.8}},
	}
	cats := [][2]string{{"Shape", "Round"}, {"Cut", "Ideal"}}
	var want []byte
	for order := 0; order < 8; order++ {
		q := query.New()
		for i := range ranges {
			r := ranges[(i+order)%len(ranges)]
			if order%2 == 1 {
				r = ranges[len(ranges)-1-(i+order)%len(ranges)]
			}
			q = q.WithRange(s.Index(r.attr), r.iv)
		}
		for i := range cats {
			c := cats[(i+order)%len(cats)]
			q = q.WithCat(c[0], c[1])
		}
		if _, err := remote.TopK(q); err != nil {
			t.Fatal(err)
		}
		if order == 0 {
			ref := SearchRequest{Filters: map[string]string{}}
			for _, c := range q.Cats() {
				ref.Filters[c.Name] = c.Value
			}
			for a := 0; a < s.Len(); a++ {
				iv, ok := q.Range(a)
				if !ok {
					continue
				}
				rs := RangeSpec{Attr: s.Attr(a).Name, MinOpen: iv.LoOpen, MaxOpen: iv.HiOpen}
				if !math.IsInf(iv.Lo, -1) {
					rs.Min = &iv.Lo
				}
				if !math.IsInf(iv.Hi, 1) {
					rs.Max = &iv.Hi
				}
				ref.Ranges = append(ref.Ranges, rs)
			}
			if want, err = json.Marshal(ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(bodies) != 8 {
		t.Fatalf("upstream saw %d search requests, want 8", len(bodies))
	}
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("request %d body\n%s\nwant\n%s", i, b, want)
		}
	}
}

// TestInfiniteScoreIsNotAnEmpty200: finite weights whose score can overflow
// the schema's domains are a 400 on every rerank route (a batch item's 400
// on the batch route), and a score that still overflows — a ratio over a
// tiny denominator — is a 500 envelope on rerank and batch and an in-band
// 500 event on stream, never a 200 with an empty body.
func TestInfiniteScoreIsNotAnEmpty200(t *testing.T) {
	_, api, _ := servingPipeline(t, bnDB(t, 300), Options{Core: core.Options{N: 300}})
	post := func(api *httptest.Server, path, body string) (int, []byte) {
		t.Helper()
		resp, err := api.Client().Post(api.URL+"/v1/upstreams/default/rerank"+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	overflow := `{"ranking":{"kind":"linear","attrs":["Price","Carat"],"weights":[1e308,1e308]},"h":3}`
	for _, path := range []string{"", "/stream"} {
		if code, b := post(api, path, overflow); code != http.StatusBadRequest || !bytes.Contains(b, []byte(ErrCodeBadRequest)) {
			t.Errorf("rerank%s: %d %s, want a 400 envelope", path, code, b)
		}
	}
	code, b := post(api, "/batch", `{"requests":[`+overflow+`]}`)
	var batch BatchResponse
	if code != http.StatusOK || json.Unmarshal(b, &batch) != nil || len(batch.Items) != 1 ||
		batch.Items[0].Status != http.StatusBadRequest || batch.Items[0].Error.Code != ErrCodeBadRequest {
		t.Errorf("batch: %d %s, want one 400 item", code, b)
	}

	// A ratio ranker's score overflows when a tiny denominator divides a
	// huge numerator, both inside their domains.
	schema, err := types.NewSchema([]types.Attribute{
		{Name: "A", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 1e308}},
		{Name: "B", Kind: types.Ordinal, Domain: types.Domain{Min: 1e-300, Max: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tuples := []types.Tuple{{ID: 1, Ord: []float64{1e308, 1e-300}}, {ID: 2, Ord: []float64{1e308, 2e-300}}}
	db, err := hidden.NewDB(schema, tuples, hidden.Options{K: 5, Ranker: hidden.RankerAdapter{R: ranking.NewSingle("sys", 1, ranking.Asc)}})
	if err != nil {
		t.Fatal(err)
	}
	_, api2, _ := servingPipeline(t, db, Options{Core: core.Options{N: 2}})
	inf := `{"ranking":{"kind":"ratio","attrs":["A","B"]},"h":2}`
	for _, path := range []string{"", "/batch"} {
		body := inf
		if path == "/batch" {
			body = `{"requests":[` + inf + `]}`
		}
		code, b := post(api2, path, body)
		var env errorEnvelope
		if code != http.StatusInternalServerError || json.Unmarshal(b, &env) != nil || env.Error == nil || env.Error.Code != ErrCodeInternal {
			t.Errorf("rerank%s over +Inf scores: %d %q, want a 500 envelope", path, code, b)
		}
	}
	code, b = post(api2, "/stream", inf)
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var last StreamEvent
	if code != http.StatusOK || json.Unmarshal(lines[len(lines)-1], &last) != nil ||
		!last.Done || last.Status != http.StatusInternalServerError || last.Error == nil || last.Error.Code != ErrCodeInternal {
		t.Errorf("stream over +Inf scores: %d %q, want a final in-band 500 event", code, b)
	}
}

// BenchmarkWireCodec prices the serving wire's codec against encoding/json
// on the shapes the hot path carries: an 8-tuple rerank response, a stream
// tuple event, a Blue Nile search answer and a rerank request.
func BenchmarkWireCodec(b *testing.B) {
	ds := dataset.BlueNile(7, 300)
	schema := ds.Schema
	rk := ranking.MustLinear("bench", []int{schema.Index("Price"), schema.Index("Carat")}, []float64{1, 500})
	resp := &RerankResponse{QueriesIssued: 3, EngineQueries: 120, Epoch: 1}
	for _, tp := range ds.Tuples[:8] {
		var tj TupleJSON
		toJSONInto(schema, rk, tp, &tj)
		resp.Tuples = append(resp.Tuples, tj)
	}
	ev := &StreamEvent{Tuple: &resp.Tuples[0], CumQueries: 2}
	res, err := ds.DB().TopK(query.New())
	if err != nil {
		b.Fatal(err)
	}
	answer := SearchResponse{Overflow: res.Overflow}
	for _, t := range res.Tuples {
		wt := WireTuple{ID: t.ID, Ord: map[string]float64{}, Cat: t.Cat}
		for _, i := range schema.OrdinalIndexes() {
			wt.Ord[schema.Attr(i).Name] = t.Ord[i]
		}
		answer.Tuples = append(answer.Tuples, wt)
	}
	answerBody, _ := json.Marshal(answer)
	reqBody := []byte(`{"ranges":[{"attr":"Price","min":5000,"max":7000}],"filters":{"Shape":"Round"},"ranking":{"kind":"linear","attrs":["Price","Carat"],"weights":[1,500]},"h":8}`)
	remote := &RemoteDB{schema: schema, k: ds.DefaultSystemK, known: map[string]string{}}
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		remote.known[a.Name] = a.Name
		for _, v := range a.Values {
			remote.known[v] = v
		}
	}

	w := &discardWriter{h: http.Header{}}
	encode := func(v wireValue) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				writeWire(w, http.StatusOK, v)
			}
		}
	}
	encodeJSON := func(v any) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				writeJSON(w, http.StatusOK, v)
			}
		}
	}
	b.Run("encode-response/wire", encode(resp))
	b.Run("encode-response/json", encodeJSON(resp))
	b.Run("encode-event/wire", encode(ev))
	b.Run("encode-event/json", encodeJSON(ev))
	b.Run("decode-answer/wire", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := remote.decodeAnswer(answerBody, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-answer/json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := refAnswer(schema, answerBody); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-request/wire", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var req RerankRequest
			var d jsonwire.Decoder
			if err := d.First(reqBody, false, func() { req.decodeJSON(&d) }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-request/json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var req RerankRequest
			if err := json.NewDecoder(bytes.NewReader(reqBody)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header       { return w.h }
func (*discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (*discardWriter) WriteHeader(int)             {}
