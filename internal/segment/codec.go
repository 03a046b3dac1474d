// The segment codec: one hand-written encoder and decoder for every type the
// store persists (segment file bodies and journal records, down to tuples,
// probe records and heat). The bytes are JSON, exactly as encoding/json
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
// bytes. A map's repeated key keeps its last value, as encoding/json does:
// the encoder writes every invalid UTF-8 key as "\ufffd", so two such keys
// of one map arrive as a repeat. The struct tags on the persisted types stay
// as the reference the tests compare the codec against.

package segment

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/acquire"
)

// encoder appends the JSON form of the persisted types to buf. A value
// encoding/json cannot encode (a non-finite float outside a Bound) sets err.
// Encoders are pooled, so a checkpoint's buffer growth is paid once.
type encoder struct {
	buf  []byte
	keys []string // map-key scratch, sorted per map
	err  error
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder() *encoder {
	e := encoders.Get().(*encoder)
	e.buf, e.err = e.buf[:0], nil
	return e
}

// result returns a copy of what e wrote, with room for extra more bytes,
// and returns e to the pool.
func (e *encoder) result(extra int) ([]byte, error) {
	var out []byte
	err := e.err
	if err == nil {
		out = append(make([]byte, 0, len(e.buf)+extra), e.buf...)
	}
	encoders.Put(e)
	return out, err
}

// field appends an object key, preceded by a comma unless it opens the
// object (a value never ends in '{', so the last byte tells).
func (e *encoder) field(name string) {
	if e.buf[len(e.buf)-1] != '{' {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
}

func (e *encoder) int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

// float appends f as encoding/json does: ES6 number formatting, with the
// exponent form below 1e-6 and from 1e21 on, and no zero-padded exponent.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("segment: unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		e.buf = append(e.buf, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(e.buf)
		if n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// bound appends a Bound as its MarshalJSON does: non-finite values as the
// strings "+Inf", "-Inf" and "NaN".
func (e *encoder) bound(b Bound) {
	f := float64(b)
	switch {
	case math.IsInf(f, 1):
		e.buf = append(e.buf, `"+Inf"`...)
	case math.IsInf(f, -1):
		e.buf = append(e.buf, `"-Inf"`...)
	case math.IsNaN(f):
		e.buf = append(e.buf, `"NaN"`...)
	default:
		e.float(f)
	}
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json writes unescaped: everything
// from the space on except the quote, the backslash and <, >, &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// str appends s quoted and escaped as encoding/json does: HTML characters
// and control bytes as \u00XX (except the five short escapes), invalid UTF-8
// as \ufffd and U+2028/U+2029 as \u202X.
func (e *encoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

// strMap appends a string map with its keys in sorted order; nil is null.
func (e *encoder) strMap(m map[string]string) {
	if m == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.str(k)
		e.buf = append(e.buf, ':')
		e.str(m[k])
	}
	e.buf = append(e.buf, '}')
	clear(keys)
	e.keys = keys[:0]
}

func (e *encoder) fingerprint(f *Fingerprint) {
	e.buf = append(e.buf, `{"schema":`...)
	if f.Schema == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i, s := range f.Schema {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(s)
		}
		e.buf = append(e.buf, ']')
	}
	if f.UpstreamK != 0 {
		e.field("upstreamK")
		e.int(int64(f.UpstreamK))
	}
	if f.UpstreamRanker != "" {
		e.field("upstreamRanker")
		e.str(f.UpstreamRanker)
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) delta(d *Delta) {
	if d == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, `{"histLo":`...)
	e.int(int64(d.HistLo))
	e.field("histHi")
	e.int(int64(d.HistHi))
	if len(d.Hist) > 0 {
		e.field("hist")
		e.buf = append(e.buf, '[')
		for i := range d.Hist {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.tuple(&d.Hist[i])
		}
		e.buf = append(e.buf, ']')
	}
	if len(d.Probes) > 0 {
		e.field("probes")
		e.buf = append(e.buf, '[')
		for i := range d.Probes {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.probe(&d.Probes[i])
		}
		e.buf = append(e.buf, ']')
	}
	if d.Heat != nil {
		e.field("heat")
		e.heat(d.Heat)
	}
	if d.Epoch != 0 {
		e.field("epoch")
		e.int(d.Epoch)
	}
	e.field("queries")
	e.int(d.Queries)
	e.buf = append(e.buf, '}')
}

func (e *encoder) tuple(t *Tuple) {
	e.buf = append(e.buf, `{"id":`...)
	e.int(int64(t.ID))
	e.buf = append(e.buf, `,"ord":`...)
	if t.Ord == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i, v := range t.Ord {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.float(v)
		}
		e.buf = append(e.buf, ']')
	}
	if len(t.Cat) > 0 {
		e.buf = append(e.buf, `,"cat":`...)
		e.strMap(t.Cat)
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) probe(p *ProbeOp) {
	e.buf = append(e.buf, '{')
	if len(p.Ranges) > 0 {
		e.field("ranges")
		e.buf = append(e.buf, '[')
		for i := range p.Ranges {
			r := &p.Ranges[i]
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `{"attr":`...)
			e.int(int64(r.Attr))
			e.buf = append(e.buf, `,"lo":`...)
			e.bound(r.Lo)
			e.buf = append(e.buf, `,"hi":`...)
			e.bound(r.Hi)
			if r.LoOpen {
				e.buf = append(e.buf, `,"loOpen":true`...)
			}
			if r.HiOpen {
				e.buf = append(e.buf, `,"hiOpen":true`...)
			}
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	if len(p.Cats) > 0 {
		e.field("cats")
		e.strMap(p.Cats)
	}
	e.field("rows")
	if p.Rows == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i, r := range p.Rows {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = strconv.AppendUint(e.buf, uint64(r), 10)
		}
		e.buf = append(e.buf, ']')
	}
	if p.Overflow {
		e.buf = append(e.buf, `,"overflow":true`...)
	}
	if p.Crawled {
		e.buf = append(e.buf, `,"crawled":true`...)
	}
	if p.Epoch != 0 {
		e.field("epoch")
		e.int(p.Epoch)
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) heat(h *acquire.HeatExport) {
	e.buf = append(e.buf, '{')
	if h.HalfLifeSec != 0 {
		e.field("halfLifeSec")
		e.float(h.HalfLifeSec)
	}
	if len(h.Attrs) > 0 {
		e.field("attrs")
		e.buf = append(e.buf, '[')
		for i := range h.Attrs {
			a := &h.Attrs[i]
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `{"attr":`...)
			e.int(int64(a.Attr))
			e.buf = append(e.buf, `,"cells":`...)
			if a.Cells == nil {
				e.buf = append(e.buf, "null"...)
			} else {
				e.buf = append(e.buf, '[')
				for j := range a.Cells {
					c := &a.Cells[j]
					if j > 0 {
						e.buf = append(e.buf, ',')
					}
					e.buf = append(e.buf, `{"cell":`...)
					e.int(int64(c.Cell))
					e.buf = append(e.buf, `,"heat":`...)
					e.float(c.Heat)
					e.buf = append(e.buf, `,"lo":`...)
					e.float(c.Lo)
					e.buf = append(e.buf, `,"hi":`...)
					e.float(c.Hi)
					e.buf = append(e.buf, `,"votes":`...)
					e.float(c.Votes)
					e.buf = append(e.buf, '}')
				}
				e.buf = append(e.buf, ']')
			}
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) segmentFile(fp *Fingerprint, deltas []*Delta) {
	e.buf = append(e.buf, `{"format":`...)
	e.int(Format)
	e.buf = append(e.buf, `,"fingerprint":`...)
	e.fingerprint(fp)
	e.buf = append(e.buf, `,"deltas":`...)
	if deltas == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i, d := range deltas {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.delta(d)
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) record(r *journalRecord) {
	e.buf = append(e.buf, `{"kind":`...)
	e.str(r.Kind)
	if r.Format != 0 {
		e.field("format")
		e.int(int64(r.Format))
	}
	if r.Fingerprint != nil {
		e.field("fingerprint")
		e.fingerprint(r.Fingerprint)
	}
	if r.Seq != 0 {
		e.field("seq")
		e.buf = strconv.AppendUint(e.buf, r.Seq, 10)
	}
	if r.Delta != nil {
		e.field("delta")
		e.delta(r.Delta)
	}
	if r.File != "" {
		e.field("file")
		e.str(r.File)
	}
	if r.SHA256 != "" {
		e.field("sha256")
		e.str(r.SHA256)
	}
	if r.Deltas != 0 {
		e.field("deltas")
		e.int(int64(r.Deltas))
	}
	e.buf = append(e.buf, '}')
}

// decodeError is what the decoder panics with; decode recovers it into an
// error. Any other panic is a decoder bug and is not recovered.
type decodeError struct {
	off int
	msg string
}

func (e *decodeError) Error() string { return fmt.Sprintf("offset %d: %s", e.off, e.msg) }

// decoder reads the persisted types from data in one pass. Probe rows,
// ordinal values and probe ranges are laid into shared backing arrays and
// handed out as capacity-limited sub-slices, so a segment file costs a few
// allocations per kind instead of one per slice; strings are interned.
type decoder struct {
	data   []byte
	i      int
	rows   []uint32
	ords   []float64
	ranges []ProbeRange
	strs   map[string]string
	key    []byte // the member key just read, for error messages
	unq    []byte // unescaped string scratch
}

// decode runs fn over data, which must hold exactly one value (plus
// whitespace), and turns a decodeError panic into an error.
func decode(data []byte, fn func(*decoder)) (err error) {
	d := &decoder{data: data, strs: make(map[string]string)}
	defer func() {
		if r := recover(); r != nil {
			de, ok := r.(*decodeError)
			if !ok {
				panic(r)
			}
			err = de
		}
	}()
	fn(d)
	if d.ws(); d.i != len(d.data) {
		d.fail("trailing bytes after the value")
	}
	return nil
}

func (d *decoder) fail(msg string) { panic(&decodeError{off: d.i, msg: msg}) }

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the next non-space byte, or 0 at the end of input.
func (d *decoder) peek() byte {
	d.ws()
	if d.i == len(d.data) {
		return 0
	}
	return d.data[d.i]
}

func (d *decoder) expect(c byte) {
	if d.peek() != c {
		d.fail("expected " + strconv.QuoteRune(rune(c)))
	}
	d.i++
}

// literal consumes the keyword lit if it comes next.
func (d *decoder) literal(lit string) bool {
	if d.peek() != lit[0] {
		return false
	}
	if len(d.data)-d.i < len(lit) || string(d.data[d.i:d.i+len(lit)]) != lit {
		d.fail("invalid literal")
	}
	d.i += len(lit)
	return true
}

func (d *decoder) null() bool { return d.literal("null") }

// more steps through an object's members or an array's elements: n is how
// many came before, end is '}' or ']'. It reports whether another follows.
func (d *decoder) more(end byte, n int) bool {
	c := d.peek()
	if c == end {
		d.i++
		return false
	}
	if n > 0 {
		if c != ',' {
			d.fail("expected ',' or " + strconv.QuoteRune(rune(end)))
		}
		d.i++
	}
	return true
}

// field reads the next member's key and its colon.
func (d *decoder) field() []byte {
	d.key = d.strBytes()
	d.expect(':')
	return d.key
}

// once marks a struct field read: seen holds a bit per field of the struct
// being decoded, bit is this key's, and a repeated key is an error.
func (d *decoder) once(seen *uint16, bit uint16) {
	if *seen&bit != 0 {
		d.fail("repeated key " + strconv.Quote(string(d.key)))
	}
	*seen |= bit
}

func (d *decoder) unknown() { d.fail("unknown key " + strconv.Quote(string(d.key))) }

// strBytes reads a string. When it holds no escape it returns the input
// bytes themselves; otherwise it unescapes into the scratch, and the result
// is valid until the next call.
func (d *decoder) strBytes() []byte {
	d.expect('"')
	start := d.i
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return d.data[start : d.i-1]
		case c == '\\':
			d.unq = d.unescape(append(d.unq[:0], d.data[start:d.i]...))
			return d.unq
		case c < ' ':
			d.fail("control byte in string")
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.data[d.i:])
			if r == utf8.RuneError && size == 1 {
				d.fail("invalid UTF-8 in string")
			}
			d.i += size
		}
	}
	d.fail("unterminated string")
	return nil
}

// unescape continues a string from its first backslash, appending to b.
func (d *decoder) unescape(b []byte) []byte {
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return b
		case c == '\\':
			if d.i+1 == len(d.data) {
				d.fail("unterminated string")
			}
			d.i += 2
			switch d.data[d.i-1] {
			case '"', '\\', '/':
				b = append(b, d.data[d.i-1])
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.hex4()
				if utf16.IsSurrogate(r) {
					// Only a valid pair is accepted; encoding/json would
					// turn a lone surrogate into U+FFFD, which the encoder
					// never asks of it.
					if d.i+2 > len(d.data) || d.data[d.i] != '\\' || d.data[d.i+1] != 'u' {
						d.fail("lone surrogate escape")
					}
					d.i += 2
					if r = utf16.DecodeRune(r, d.hex4()); r == utf8.RuneError {
						d.fail("invalid surrogate pair")
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.fail("invalid escape")
			}
		case c < ' ':
			d.fail("control byte in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.data[d.i:])
			if r == utf8.RuneError && size == 1 {
				d.fail("invalid UTF-8 in string")
			}
			b = append(b, d.data[d.i:d.i+size]...)
			d.i += size
		}
	}
	d.fail("unterminated string")
	return nil
}

func (d *decoder) hex4() rune {
	if len(d.data)-d.i < 4 {
		d.fail("short \\u escape")
	}
	var r rune
	for _, c := range d.data[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.fail("invalid \\u escape")
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r
}

// str reads a string value, interned: a store repeats the same category
// names and values thousands of times.
func (d *decoder) str() string {
	b := d.strBytes()
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// number reads one JSON number token and returns its bytes.
func (d *decoder) number() []byte {
	d.ws()
	start := d.i
	if d.i < len(d.data) && d.data[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.data) && d.data[d.i] == '0' {
		d.i++
	} else if !d.digits() {
		d.fail("expected a number")
	}
	if d.i < len(d.data) && d.data[d.i] == '.' {
		d.i++
		if !d.digits() {
			d.fail("expected a digit after '.'")
		}
	}
	if d.i < len(d.data) && (d.data[d.i] == 'e' || d.data[d.i] == 'E') {
		d.i++
		if d.i < len(d.data) && (d.data[d.i] == '+' || d.data[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			d.fail("expected a digit in the exponent")
		}
	}
	return d.data[start:d.i]
}

func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// digitsValue converts a number token's digits to an integer no larger
// than max. Like encoding/json, it refuses a sign, a fraction or an
// exponent even when the value is whole.
func (d *decoder) digitsValue(tok []byte, max uint64) uint64 {
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			d.fail("expected an integer")
		}
		if v > (max-uint64(c-'0'))/10 {
			d.fail("integer out of range")
		}
		v = v*10 + uint64(c-'0')
	}
	return v
}

func (d *decoder) uint(max uint64) uint64 { return d.digitsValue(d.number(), max) }

// signed reads an integer in [-max-1, max].
func (d *decoder) signed(max uint64) int64 {
	tok := d.number()
	if tok[0] == '-' {
		return -int64(d.digitsValue(tok[1:], max+1))
	}
	return int64(d.digitsValue(tok, max))
}

func (d *decoder) int() int { return int(d.signed(math.MaxInt)) }

func (d *decoder) int64() int64 { return d.signed(math.MaxInt64) }

func (d *decoder) float() float64 {
	tok := d.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail("number out of range")
	}
	return f
}

func (d *decoder) bool() bool {
	if d.literal("true") {
		return true
	}
	if d.literal("false") {
		return false
	}
	d.fail("expected a boolean")
	return false
}

// bound reads a Bound: a number, or one of the three strings its
// MarshalJSON writes for a non-finite value.
func (d *decoder) bound() Bound {
	if d.peek() != '"' {
		return Bound(d.float())
	}
	switch string(d.strBytes()) {
	case "+Inf":
		return Bound(math.Inf(1))
	case "-Inf":
		return Bound(math.Inf(-1))
	case "NaN":
		return Bound(math.NaN())
	}
	d.fail("bound string is not +Inf, -Inf or NaN")
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
	if d.null() {
		return nil
	}
	d.expect('[')
	start := len(d.rows)
	for n := 0; d.more(']', n); n++ {
		v := uint32(d.uint(math.MaxUint32))
		d.rows, start = reserve(d.rows, start)
		d.rows = append(d.rows, v)
	}
	if len(d.rows) == start {
		return []uint32{}
	}
	return d.rows[start:len(d.rows):len(d.rows)]
}

func (d *decoder) ordSlice() []float64 {
	if d.null() {
		return nil
	}
	d.expect('[')
	start := len(d.ords)
	for n := 0; d.more(']', n); n++ {
		v := d.float()
		d.ords, start = reserve(d.ords, start)
		d.ords = append(d.ords, v)
	}
	if len(d.ords) == start {
		return []float64{}
	}
	return d.ords[start:len(d.ords):len(d.ords)]
}

func (d *decoder) strMap() map[string]string {
	if d.null() {
		return nil
	}
	d.expect('{')
	m := make(map[string]string)
	for n := 0; d.more('}', n); n++ {
		k := d.str()
		d.expect(':')
		m[k] = d.str()
	}
	return m
}

func (d *decoder) strSlice() []string {
	if d.null() {
		return nil
	}
	d.expect('[')
	out := []string{}
	for n := 0; d.more(']', n); n++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) fingerprint(f *Fingerprint) {
	d.expect('{')
	var seen uint16
	for n := 0; d.more('}', n); n++ {
		switch string(d.field()) {
		case "schema":
			d.once(&seen, 1)
			f.Schema = d.strSlice()
		case "upstreamK":
			d.once(&seen, 2)
			f.UpstreamK = d.int()
		case "upstreamRanker":
			d.once(&seen, 4)
			f.UpstreamRanker = d.str()
		default:
			d.unknown()
		}
	}
}

func (d *decoder) delta() *Delta {
	if d.null() {
		return nil
	}
	d.expect('{')
	dl := new(Delta)
	var seen uint16
	for n := 0; d.more('}', n); n++ {
		switch string(d.field()) {
		case "histLo":
			d.once(&seen, 1)
			dl.HistLo = d.int()
		case "histHi":
			d.once(&seen, 2)
			dl.HistHi = d.int()
		case "hist":
			d.once(&seen, 4)
			dl.Hist = d.tuples()
		case "probes":
			d.once(&seen, 8)
			dl.Probes = d.probes()
		case "heat":
			d.once(&seen, 16)
			dl.Heat = d.heat()
		case "epoch":
			d.once(&seen, 32)
			dl.Epoch = d.int64()
		case "queries":
			d.once(&seen, 64)
			dl.Queries = d.int64()
		default:
			d.unknown()
		}
	}
	return dl
}

func (d *decoder) tuples() []Tuple {
	if d.null() {
		return nil
	}
	d.expect('[')
	out := []Tuple{}
	for n := 0; d.more(']', n); n++ {
		out = append(out, Tuple{})
		t := &out[len(out)-1]
		d.expect('{')
		var seen uint16
		for m := 0; d.more('}', m); m++ {
			switch string(d.field()) {
			case "id":
				d.once(&seen, 1)
				t.ID = d.int()
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
	if d.null() {
		return nil
	}
	d.expect('[')
	out := []ProbeOp{}
	for n := 0; d.more(']', n); n++ {
		out = append(out, ProbeOp{})
		p := &out[len(out)-1]
		d.expect('{')
		var seen uint16
		for m := 0; d.more('}', m); m++ {
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
				p.Overflow = d.bool()
			case "crawled":
				d.once(&seen, 16)
				p.Crawled = d.bool()
			case "epoch":
				d.once(&seen, 32)
				p.Epoch = d.int64()
			default:
				d.unknown()
			}
		}
	}
	return out
}

func (d *decoder) probeRanges() []ProbeRange {
	if d.null() {
		return nil
	}
	d.expect('[')
	start := len(d.ranges)
	for n := 0; d.more(']', n); n++ {
		d.ranges, start = reserve(d.ranges, start)
		d.ranges = append(d.ranges, ProbeRange{})
		r := &d.ranges[len(d.ranges)-1]
		d.expect('{')
		var seen uint16
		for m := 0; d.more('}', m); m++ {
			switch string(d.field()) {
			case "attr":
				d.once(&seen, 1)
				r.Attr = d.int()
			case "lo":
				d.once(&seen, 2)
				r.Lo = d.bound()
			case "hi":
				d.once(&seen, 4)
				r.Hi = d.bound()
			case "loOpen":
				d.once(&seen, 8)
				r.LoOpen = d.bool()
			case "hiOpen":
				d.once(&seen, 16)
				r.HiOpen = d.bool()
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

func (d *decoder) heat() *acquire.HeatExport {
	if d.null() {
		return nil
	}
	d.expect('{')
	h := new(acquire.HeatExport)
	var seen uint16
	for n := 0; d.more('}', n); n++ {
		switch string(d.field()) {
		case "halfLifeSec":
			d.once(&seen, 1)
			h.HalfLifeSec = d.float()
		case "attrs":
			d.once(&seen, 2)
			h.Attrs = d.attrHeats()
		default:
			d.unknown()
		}
	}
	return h
}

func (d *decoder) attrHeats() []acquire.AttrHeat {
	if d.null() {
		return nil
	}
	d.expect('[')
	out := []acquire.AttrHeat{}
	for n := 0; d.more(']', n); n++ {
		out = append(out, acquire.AttrHeat{})
		a := &out[len(out)-1]
		d.expect('{')
		var seen uint16
		for m := 0; d.more('}', m); m++ {
			switch string(d.field()) {
			case "attr":
				d.once(&seen, 1)
				a.Attr = d.int()
			case "cells":
				d.once(&seen, 2)
				a.Cells = d.cellHeats()
			default:
				d.unknown()
			}
		}
	}
	return out
}

func (d *decoder) cellHeats() []acquire.CellHeat {
	if d.null() {
		return nil
	}
	d.expect('[')
	out := []acquire.CellHeat{}
	for n := 0; d.more(']', n); n++ {
		out = append(out, acquire.CellHeat{})
		c := &out[len(out)-1]
		d.expect('{')
		var seen uint16
		for m := 0; d.more('}', m); m++ {
			switch string(d.field()) {
			case "cell":
				d.once(&seen, 1)
				c.Cell = d.int()
			case "heat":
				d.once(&seen, 2)
				c.Heat = d.float()
			case "lo":
				d.once(&seen, 4)
				c.Lo = d.float()
			case "hi":
				d.once(&seen, 8)
				c.Hi = d.float()
			case "votes":
				d.once(&seen, 16)
				c.Votes = d.float()
			default:
				d.unknown()
			}
		}
	}
	return out
}

func (d *decoder) segmentFile(sf *segmentFile) {
	d.expect('{')
	var seen uint16
	for n := 0; d.more('}', n); n++ {
		switch string(d.field()) {
		case "format":
			d.once(&seen, 1)
			sf.Format = d.int()
		case "fingerprint":
			d.once(&seen, 2)
			d.fingerprint(&sf.Fingerprint)
		case "deltas":
			d.once(&seen, 4)
			if d.null() {
				sf.Deltas = nil
				continue
			}
			d.expect('[')
			sf.Deltas = []*Delta{}
			for m := 0; d.more(']', m); m++ {
				sf.Deltas = append(sf.Deltas, d.delta())
			}
		default:
			d.unknown()
		}
	}
}

func (d *decoder) record(r *journalRecord) {
	d.expect('{')
	var seen uint16
	for n := 0; d.more('}', n); n++ {
		switch string(d.field()) {
		case "kind":
			d.once(&seen, 1)
			r.Kind = d.str()
		case "format":
			d.once(&seen, 2)
			r.Format = d.int()
		case "fingerprint":
			d.once(&seen, 4)
			if d.null() {
				r.Fingerprint = nil
				continue
			}
			r.Fingerprint = new(Fingerprint)
			d.fingerprint(r.Fingerprint)
		case "seq":
			d.once(&seen, 8)
			r.Seq = d.uint(math.MaxUint64)
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
			r.Deltas = d.int()
		default:
			d.unknown()
		}
	}
}
