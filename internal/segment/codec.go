// The segment codec: one hand-written encoder and decoder for every type the
// store persists (segment file bodies and journal records, down to tuples,
// probe records). The bytes are JSON, exactly as encoding/json
// writes them for these types, so files written before the codec existed and
// files written by it are the same format generation byte for byte. The
// codec only drops the reflection: the encoder appends fields in declaration
// order, and the decoder makes one pass over the bytes and writes straight
// into the typed values.
//
// The decoder accepts every byte string the encoder can produce (in any key
// order, with any JSON whitespace, null for a nil slice, map or pointer, and
// every string escape JSON defines), and only input that encoding/json would
// decode to a reflect.DeepEqual value. Everything else is an error: unknown
// keys, repeated struct keys, type mismatches (a fraction where an integer
// belongs, null for a number), raw invalid UTF-8 in a string, trailing
// bytes. One retired key is read past, as encoding/json reads past any
// unknown key: a delta's "heat", a request-heat capture that stores of this
// format generation may carry. A map's repeated key keeps its last value, as
// encoding/json does: the encoder writes every invalid UTF-8 key as
// "\ufffd", so two such keys of one map arrive as a repeat. The struct tags
// on the persisted types stay as the reference the tests compare the codec
// against. The JSON primitives (numbers, strings, maps, the scanner) are
// package jsonwire's, which the serving wire shares; this file holds what
// only the store persists.

package segment

import (
	"math"
	"strconv"

	"repro/internal/jsonwire"
)

// encoder appends the JSON form of the persisted types. A value
// encoding/json cannot encode (a non-finite float outside a Bound) sets Err.
// Encoders are pooled, so a checkpoint's buffer growth is paid once.
type encoder struct{ *jsonwire.Encoder }

func getEncoder() encoder { return encoder{jsonwire.Get()} }

// result returns a copy of what e wrote, with room for extra more bytes,
// and returns e to the pool.
func (e encoder) result(extra int) ([]byte, error) {
	var out []byte
	err := e.Err
	if err == nil {
		out = append(make([]byte, 0, len(e.Buf)+extra), e.Buf...)
	}
	jsonwire.Put(e.Encoder)
	return out, err
}

// bound appends a Bound as its MarshalJSON does: non-finite values as the
// strings "+Inf", "-Inf" and "NaN".
func (e encoder) bound(b Bound) {
	f := float64(b)
	switch {
	case math.IsInf(f, 1):
		e.Buf = append(e.Buf, `"+Inf"`...)
	case math.IsInf(f, -1):
		e.Buf = append(e.Buf, `"-Inf"`...)
	case math.IsNaN(f):
		e.Buf = append(e.Buf, `"NaN"`...)
	default:
		e.Float(f)
	}
}

func (e encoder) fingerprint(f *Fingerprint) {
	e.Buf = append(e.Buf, `{"schema":`...)
	if f.Schema == nil {
		e.Buf = append(e.Buf, "null"...)
	} else {
		e.Buf = append(e.Buf, '[')
		for i, s := range f.Schema {
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.Str(s)
		}
		e.Buf = append(e.Buf, ']')
	}
	if f.UpstreamK != 0 {
		e.Field("upstreamK")
		e.Int(int64(f.UpstreamK))
	}
	if f.UpstreamRanker != "" {
		e.Field("upstreamRanker")
		e.Str(f.UpstreamRanker)
	}
	e.Buf = append(e.Buf, '}')
}

func (e encoder) delta(d *Delta) {
	if d == nil {
		e.Buf = append(e.Buf, "null"...)
		return
	}
	e.Buf = append(e.Buf, `{"histLo":`...)
	e.Int(int64(d.HistLo))
	e.Field("histHi")
	e.Int(int64(d.HistHi))
	if len(d.Hist) > 0 {
		e.Field("hist")
		e.Buf = append(e.Buf, '[')
		for i := range d.Hist {
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.tuple(&d.Hist[i])
		}
		e.Buf = append(e.Buf, ']')
	}
	if len(d.Probes) > 0 {
		e.Field("probes")
		e.Buf = append(e.Buf, '[')
		for i := range d.Probes {
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.probe(&d.Probes[i])
		}
		e.Buf = append(e.Buf, ']')
	}
	if d.Epoch != 0 {
		e.Field("epoch")
		e.Int(d.Epoch)
	}
	e.Field("queries")
	e.Int(d.Queries)
	e.Buf = append(e.Buf, '}')
}

func (e encoder) tuple(t *Tuple) {
	e.Buf = append(e.Buf, `{"id":`...)
	e.Int(int64(t.ID))
	e.Buf = append(e.Buf, `,"ord":`...)
	if t.Ord == nil {
		e.Buf = append(e.Buf, "null"...)
	} else {
		e.Buf = append(e.Buf, '[')
		for i, v := range t.Ord {
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.Float(v)
		}
		e.Buf = append(e.Buf, ']')
	}
	if len(t.Cat) > 0 {
		e.Buf = append(e.Buf, `,"cat":`...)
		e.StrMap(t.Cat)
	}
	e.Buf = append(e.Buf, '}')
}

func (e encoder) probe(p *ProbeOp) {
	e.Buf = append(e.Buf, '{')
	if len(p.Ranges) > 0 {
		e.Field("ranges")
		e.Buf = append(e.Buf, '[')
		for i := range p.Ranges {
			r := &p.Ranges[i]
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.Buf = append(e.Buf, `{"attr":`...)
			e.Int(int64(r.Attr))
			e.Buf = append(e.Buf, `,"lo":`...)
			e.bound(r.Lo)
			e.Buf = append(e.Buf, `,"hi":`...)
			e.bound(r.Hi)
			if r.LoOpen {
				e.Buf = append(e.Buf, `,"loOpen":true`...)
			}
			if r.HiOpen {
				e.Buf = append(e.Buf, `,"hiOpen":true`...)
			}
			e.Buf = append(e.Buf, '}')
		}
		e.Buf = append(e.Buf, ']')
	}
	if len(p.Cats) > 0 {
		e.Field("cats")
		e.StrMap(p.Cats)
	}
	e.Field("rows")
	if p.Rows == nil {
		e.Buf = append(e.Buf, "null"...)
	} else {
		e.Buf = append(e.Buf, '[')
		for i, r := range p.Rows {
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.Uint(uint64(r))
		}
		e.Buf = append(e.Buf, ']')
	}
	if p.Overflow {
		e.Buf = append(e.Buf, `,"overflow":true`...)
	}
	if p.Crawled {
		e.Buf = append(e.Buf, `,"crawled":true`...)
	}
	if p.Epoch != 0 {
		e.Field("epoch")
		e.Int(p.Epoch)
	}
	e.Buf = append(e.Buf, '}')
}

func (e encoder) segmentFile(fp *Fingerprint, deltas []*Delta) {
	e.Buf = append(e.Buf, `{"format":`...)
	e.Int(Format)
	e.Buf = append(e.Buf, `,"fingerprint":`...)
	e.fingerprint(fp)
	e.Buf = append(e.Buf, `,"deltas":`...)
	if deltas == nil {
		e.Buf = append(e.Buf, "null"...)
	} else {
		e.Buf = append(e.Buf, '[')
		for i, d := range deltas {
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.delta(d)
		}
		e.Buf = append(e.Buf, ']')
	}
	e.Buf = append(e.Buf, '}')
}

func (e encoder) record(r *journalRecord) {
	e.Buf = append(e.Buf, `{"kind":`...)
	e.Str(r.Kind)
	if r.Format != 0 {
		e.Field("format")
		e.Int(int64(r.Format))
	}
	if r.Fingerprint != nil {
		e.Field("fingerprint")
		e.fingerprint(r.Fingerprint)
	}
	if r.Seq != 0 {
		e.Field("seq")
		e.Uint(r.Seq)
	}
	if r.Delta != nil {
		e.Field("delta")
		e.delta(r.Delta)
	}
	if r.File != "" {
		e.Field("file")
		e.Str(r.File)
	}
	if r.SHA256 != "" {
		e.Field("sha256")
		e.Str(r.SHA256)
	}
	if r.Deltas != 0 {
		e.Field("deltas")
		e.Int(int64(r.Deltas))
	}
	e.Buf = append(e.Buf, '}')
}

// decoder reads the persisted types from data in one pass. Probe rows,
// ordinal values and probe ranges are laid into shared backing arrays and
// handed out as capacity-limited sub-slices, so a segment file costs a few
// allocations per kind instead of one per slice; strings are interned.
type decoder struct {
	jsonwire.Decoder
	rows   []uint32
	ords   []float64
	ranges []ProbeRange
	strs   map[string]string
	key    []byte // the member key just read, for error messages
}

// decode runs fn over data, which must hold exactly one value (plus
// whitespace), and returns the first error it meets.
func decode(data []byte, fn func(*decoder)) error {
	d := &decoder{strs: make(map[string]string)}
	return d.Whole(data, func() { fn(d) })
}

// field reads the next member's key and its colon.
func (d *decoder) field() []byte {
	d.key = d.Key()
	return d.key
}

// once marks a struct field read: seen holds a bit per field of the struct
// being decoded, bit is this key's, and a repeated key is an error.
func (d *decoder) once(seen *uint16, bit uint16) {
	if *seen&bit != 0 {
		d.Fail("repeated key " + strconv.Quote(string(d.key)))
	}
	*seen |= bit
}

func (d *decoder) unknown() { d.Fail("unknown key " + strconv.Quote(string(d.key))) }

// str reads a string value, interned: a store repeats the same category
// names and values thousands of times.
func (d *decoder) str() string {
	b := d.StrBytes()
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// bound reads a Bound: a number, or one of the three strings its
// MarshalJSON writes for a non-finite value.
func (d *decoder) bound() Bound {
	if d.Peek() != '"' {
		return Bound(d.Float())
	}
	switch string(d.StrBytes()) {
	case "+Inf":
		return Bound(math.Inf(1))
	case "-Inf":
		return Bound(math.Inf(-1))
	case "NaN":
		return Bound(math.NaN())
	}
	d.Fail("bound string is not +Inf, -Inf or NaN")
	return 0
}

// arenaChunk is the smallest backing array the decoder lays slices into.
const arenaChunk = 256

// reserve makes room in buf for one more element of the slice being built
// at buf[start:]. A full chunk is left to the slices already handed out,
// and the partial slice moves to a fresh, larger one.
func reserve[T any](buf []T, start int) ([]T, int) {
	if len(buf) < cap(buf) {
		return buf, start
	}
	n := len(buf) - start
	fresh := make([]T, n, max(arenaChunk, 2*cap(buf), 2*n))
	copy(fresh, buf[start:])
	return fresh, 0
}

func (d *decoder) rowSlice() []uint32 {
	if d.Null() {
		return nil
	}
	d.Expect('[')
	start := len(d.rows)
	for n := 0; d.More(']', n); n++ {
		v := uint32(d.Uint(math.MaxUint32))
		d.rows, start = reserve(d.rows, start)
		d.rows = append(d.rows, v)
	}
	if len(d.rows) == start {
		return []uint32{}
	}
	return d.rows[start:len(d.rows):len(d.rows)]
}

func (d *decoder) ordSlice() []float64 {
	if d.Null() {
		return nil
	}
	d.Expect('[')
	start := len(d.ords)
	for n := 0; d.More(']', n); n++ {
		v := d.Float()
		d.ords, start = reserve(d.ords, start)
		d.ords = append(d.ords, v)
	}
	if len(d.ords) == start {
		return []float64{}
	}
	return d.ords[start:len(d.ords):len(d.ords)]
}

func (d *decoder) strMap() map[string]string {
	if d.Null() {
		return nil
	}
	d.Expect('{')
	m := make(map[string]string)
	for n := 0; d.More('}', n); n++ {
		k := d.str()
		d.Expect(':')
		m[k] = d.str()
	}
	return m
}

func (d *decoder) strSlice() []string {
	if d.Null() {
		return nil
	}
	d.Expect('[')
	out := []string{}
	for n := 0; d.More(']', n); n++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) fingerprint(f *Fingerprint) {
	d.Expect('{')
	var seen uint16
	for n := 0; d.More('}', n); n++ {
		switch string(d.field()) {
		case "schema":
			d.once(&seen, 1)
			f.Schema = d.strSlice()
		case "upstreamK":
			d.once(&seen, 2)
			f.UpstreamK = d.Int()
		case "upstreamRanker":
			d.once(&seen, 4)
			f.UpstreamRanker = d.str()
		default:
			d.unknown()
		}
	}
}

func (d *decoder) delta() *Delta {
	if d.Null() {
		return nil
	}
	d.Expect('{')
	dl := new(Delta)
	var seen uint16
	for n := 0; d.More('}', n); n++ {
		switch string(d.field()) {
		case "histLo":
			d.once(&seen, 1)
			dl.HistLo = d.Int()
		case "histHi":
			d.once(&seen, 2)
			dl.HistHi = d.Int()
		case "hist":
			d.once(&seen, 4)
			dl.Hist = d.tuples()
		case "probes":
			d.once(&seen, 8)
			dl.Probes = d.probes()
		case "heat":
			// A retired request-heat capture: checked as JSON, ignored.
			d.once(&seen, 16)
			d.Skip()
		case "epoch":
			d.once(&seen, 32)
			dl.Epoch = d.Int64()
		case "queries":
			d.once(&seen, 64)
			dl.Queries = d.Int64()
		default:
			d.unknown()
		}
	}
	return dl
}

func (d *decoder) tuples() []Tuple {
	if d.Null() {
		return nil
	}
	d.Expect('[')
	out := []Tuple{}
	for n := 0; d.More(']', n); n++ {
		out = append(out, Tuple{})
		t := &out[len(out)-1]
		d.Expect('{')
		var seen uint16
		for m := 0; d.More('}', m); m++ {
			switch string(d.field()) {
			case "id":
				d.once(&seen, 1)
				t.ID = d.Int()
			case "ord":
				d.once(&seen, 2)
				t.Ord = d.ordSlice()
			case "cat":
				d.once(&seen, 4)
				t.Cat = d.strMap()
			default:
				d.unknown()
			}
		}
	}
	return out
}

func (d *decoder) probes() []ProbeOp {
	if d.Null() {
		return nil
	}
	d.Expect('[')
	out := []ProbeOp{}
	for n := 0; d.More(']', n); n++ {
		out = append(out, ProbeOp{})
		p := &out[len(out)-1]
		d.Expect('{')
		var seen uint16
		for m := 0; d.More('}', m); m++ {
			switch string(d.field()) {
			case "ranges":
				d.once(&seen, 1)
				p.Ranges = d.probeRanges()
			case "cats":
				d.once(&seen, 2)
				p.Cats = d.strMap()
			case "rows":
				d.once(&seen, 4)
				p.Rows = d.rowSlice()
			case "overflow":
				d.once(&seen, 8)
				p.Overflow = d.Bool()
			case "crawled":
				d.once(&seen, 16)
				p.Crawled = d.Bool()
			case "epoch":
				d.once(&seen, 32)
				p.Epoch = d.Int64()
			default:
				d.unknown()
			}
		}
	}
	return out
}

func (d *decoder) probeRanges() []ProbeRange {
	if d.Null() {
		return nil
	}
	d.Expect('[')
	start := len(d.ranges)
	for n := 0; d.More(']', n); n++ {
		d.ranges, start = reserve(d.ranges, start)
		d.ranges = append(d.ranges, ProbeRange{})
		r := &d.ranges[len(d.ranges)-1]
		d.Expect('{')
		var seen uint16
		for m := 0; d.More('}', m); m++ {
			switch string(d.field()) {
			case "attr":
				d.once(&seen, 1)
				r.Attr = d.Int()
			case "lo":
				d.once(&seen, 2)
				r.Lo = d.bound()
			case "hi":
				d.once(&seen, 4)
				r.Hi = d.bound()
			case "loOpen":
				d.once(&seen, 8)
				r.LoOpen = d.Bool()
			case "hiOpen":
				d.once(&seen, 16)
				r.HiOpen = d.Bool()
			default:
				d.unknown()
			}
		}
	}
	if len(d.ranges) == start {
		return []ProbeRange{}
	}
	return d.ranges[start:len(d.ranges):len(d.ranges)]
}

func (d *decoder) segmentFile(sf *segmentFile) {
	d.Expect('{')
	var seen uint16
	for n := 0; d.More('}', n); n++ {
		switch string(d.field()) {
		case "format":
			d.once(&seen, 1)
			sf.Format = d.Int()
		case "fingerprint":
			d.once(&seen, 2)
			d.fingerprint(&sf.Fingerprint)
		case "deltas":
			d.once(&seen, 4)
			if d.Null() {
				sf.Deltas = nil
				continue
			}
			d.Expect('[')
			sf.Deltas = []*Delta{}
			for m := 0; d.More(']', m); m++ {
				sf.Deltas = append(sf.Deltas, d.delta())
			}
		default:
			d.unknown()
		}
	}
}

func (d *decoder) record(r *journalRecord) {
	d.Expect('{')
	var seen uint16
	for n := 0; d.More('}', n); n++ {
		switch string(d.field()) {
		case "kind":
			d.once(&seen, 1)
			r.Kind = d.str()
		case "format":
			d.once(&seen, 2)
			r.Format = d.Int()
		case "fingerprint":
			d.once(&seen, 4)
			if d.Null() {
				r.Fingerprint = nil
				continue
			}
			r.Fingerprint = new(Fingerprint)
			d.fingerprint(r.Fingerprint)
		case "seq":
			d.once(&seen, 8)
			r.Seq = d.Uint(math.MaxUint64)
		case "delta":
			d.once(&seen, 16)
			r.Delta = d.delta()
		case "file":
			d.once(&seen, 32)
			r.File = d.str()
		case "sha256":
			d.once(&seen, 64)
			r.SHA256 = d.str()
		case "deltas":
			d.once(&seen, 128)
			r.Deltas = d.Int()
		default:
			d.unknown()
		}
	}
}
