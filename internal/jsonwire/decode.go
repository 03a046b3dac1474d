package jsonwire

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Error is what a decode fails with: the offset it stopped at and why.
// When the input ended inside the value it unwraps to io.ErrUnexpectedEOF.
type Error struct {
	Off int
	Msg string
	end bool
}

func (e *Error) Error() string { return fmt.Sprintf("offset %d: %s", e.Off, e.Msg) }

func (e *Error) Unwrap() error {
	if e.end {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// maxDepth is encoding/json's nesting limit: 10000 open objects and arrays.
const maxDepth = 10000

// Decoder reads JSON from a complete input in one pass. Its readers panic
// with an *Error, which Whole and First recover; any other panic is a
// decoder bug and is not recovered.
type Decoder struct {
	// Known holds strings a decode is likely to read (attribute names,
	// category values): Str returns Known's copy of one instead of
	// allocating it. It is only read.
	Known map[string]string

	data    []byte
	i       int
	depth   int
	lenient bool
	unq     []byte // unescaped string scratch
	fold    []byte // folded key scratch
}

// Whole runs fn over data, which must hold exactly one value (plus
// whitespace), strictly: raw invalid UTF-8 and lone surrogate escapes in a
// string are errors.
func (d *Decoder) Whole(data []byte, fn func()) error {
	d.data, d.i, d.depth, d.lenient = data, 0, 0, false
	return d.run(func() {
		fn()
		if d.ws(); d.i != len(d.data) {
			d.Fail("trailing bytes after the value")
		}
	})
}

// First runs fn over the first value of data and ignores what follows it,
// as json.Decoder.Decode reads one value from a stream; invalid UTF-8 and
// lone surrogates in a string become U+FFFD, as encoding/json makes them.
// truncated says data stops short of the stream's end: a value that runs to
// the end of data may go on past it, so it fails as unfinished (an error
// wrapping io.ErrUnexpectedEOF), unless it closes with '}' or ']'.
//
// fn stops at the first value of the wrong type, where encoding/json reads
// on to the end of the value; so a failed fn is followed by a syntax-only
// pass, and an input encoding/json finds malformed or unfinished fails as
// that.
func (d *Decoder) First(data []byte, truncated bool, fn func()) error {
	d.data, d.i, d.depth, d.lenient = data, 0, 0, true
	err := d.run(func() {
		c := d.Peek()
		fn()
		d.checkOpenEnd(c, truncated)
	})
	if err == nil {
		return nil
	}
	v := Decoder{data: data, lenient: true}
	if serr := v.run(func() {
		c := v.Peek()
		v.Skip()
		v.checkOpenEnd(c, truncated)
	}); serr != nil {
		return serr
	}
	return err
}

// checkOpenEnd fails a top-level value that began with c if truncated data
// may continue it: a scalar that runs to the end of data.
func (d *Decoder) checkOpenEnd(c byte, truncated bool) {
	if truncated && c != '{' && c != '[' && d.i == len(d.data) {
		d.failEnd()
	}
}

func (d *Decoder) run(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			de, ok := r.(*Error)
			if !ok {
				panic(r)
			}
			err = de
		}
	}()
	fn()
	return nil
}

// Fail stops the decode with msg at the current offset; at the end of the
// input the error is an unfinished value.
func (d *Decoder) Fail(msg string) {
	if d.i >= len(d.data) {
		d.failEnd()
	}
	panic(&Error{Off: d.i, Msg: msg})
}

func (d *Decoder) failEnd() {
	panic(&Error{Off: len(d.data), Msg: "unexpected end of JSON input", end: true})
}

// ws skips JSON whitespace.
func (d *Decoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// Peek returns the next non-space byte, or 0 at the end of input.
func (d *Decoder) Peek() byte {
	d.ws()
	if d.i == len(d.data) {
		return 0
	}
	return d.data[d.i]
}

// Expect consumes c, the next non-space byte. An opening '{' or '[' counts
// toward the nesting limit until More meets its close.
func (d *Decoder) Expect(c byte) {
	if d.Peek() != c {
		d.Fail("expected " + strconv.QuoteRune(rune(c)))
	}
	d.i++
	if c == '{' || c == '[' {
		if d.depth++; d.depth > maxDepth {
			d.Fail("exceeded max depth")
		}
	}
}

// Literal consumes the keyword lit if it comes next.
func (d *Decoder) Literal(lit string) bool {
	if d.Peek() != lit[0] {
		return false
	}
	rest := d.data[d.i:]
	if len(rest) < len(lit) && string(rest) == lit[:len(rest)] {
		d.failEnd()
	}
	if len(rest) < len(lit) || string(rest[:len(lit)]) != lit {
		d.Fail("invalid literal")
	}
	d.i += len(lit)
	return true
}

func (d *Decoder) Null() bool { return d.Literal("null") }

// More steps through an object's members or an array's elements: n is how
// many came before, end is '}' or ']'. It reports whether another follows.
func (d *Decoder) More(end byte, n int) bool {
	c := d.Peek()
	if c == end {
		d.i++
		d.depth--
		return false
	}
	if n > 0 {
		if c != ',' {
			d.Fail("expected ',' or " + strconv.QuoteRune(rune(end)))
		}
		d.i++
	}
	return true
}

// Key reads the next member's key and its colon. The bytes are valid until
// the next string is read.
func (d *Decoder) Key() []byte {
	k := d.StrBytes()
	d.Expect(':')
	return k
}

// Fields names the members of one struct for Member.
type Fields struct {
	names, folded []string
}

// NewFields returns the member names of a struct, as its JSON tags spell
// them.
func NewFields(names ...string) *Fields {
	f := &Fields{names: names}
	for _, n := range names {
		f.folded = append(f.folded, string(appendFolded(nil, []byte(n))))
	}
	return f
}

// Member reads the next member's key and colon and returns the field of f
// it names, matched as encoding/json matches a key to a struct field: the
// exact name first, else the first name equal under its case folding (so
// "H" names "h", and U+017F and U+212A fold with "s" and "k"). An unknown key
// returns "".
func (d *Decoder) Member(f *Fields) string {
	k := d.Key()
	for _, n := range f.names {
		if string(k) == n {
			return n
		}
	}
	d.fold = appendFolded(d.fold[:0], k)
	for i, n := range f.folded {
		if string(d.fold) == n {
			return f.names[i]
		}
	}
	return ""
}

// appendFolded appends encoding/json's folded form of a key: ASCII letters
// upper-cased, every other rune the smallest of its simple case-fold orbit.
func appendFolded(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// StrBytes reads a string. When it holds no escape (and, in First, no
// invalid UTF-8) it returns the input bytes themselves; otherwise it
// unescapes into the scratch, and the result is valid until the next call.
func (d *Decoder) StrBytes() []byte {
	d.Expect('"')
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
			d.Fail("control byte in string")
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.data[d.i:])
			if r == utf8.RuneError && size == 1 {
				if !d.lenient {
					d.Fail("invalid UTF-8 in string")
				}
				d.unq = d.unescape(append(d.unq[:0], d.data[start:d.i]...))
				return d.unq
			}
			d.i += size
		}
	}
	d.failEnd()
	return nil
}

// unescape continues a string from its first backslash (or, in First, its
// first invalid UTF-8 byte), appending to b.
func (d *Decoder) unescape(b []byte) []byte {
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return b
		case c == '\\':
			if d.i+1 == len(d.data) {
				d.failEnd()
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
				b = utf8.AppendRune(b, d.escapedRune())
			default:
				d.i--
				d.Fail("invalid escape")
			}
		case c < ' ':
			d.Fail("control byte in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.data[d.i:])
			if r == utf8.RuneError && size == 1 {
				if !d.lenient {
					d.Fail("invalid UTF-8 in string")
				}
				b = utf8.AppendRune(b, utf8.RuneError)
				d.i++
				continue
			}
			b = append(b, d.data[d.i:d.i+size]...)
			d.i += size
		}
	}
	d.failEnd()
	return nil
}

// escapedRune reads the four hex digits after \u, and the low half that
// must follow a high surrogate. Whole accepts only a valid pair. First does
// what encoding/json does: a surrogate that is not half of a valid pair is
// U+FFFD, and an escape after it is read on its own.
func (d *Decoder) escapedRune() rune {
	r := d.hex4()
	if !utf16.IsSurrogate(r) {
		return r
	}
	if d.lenient {
		if rest := d.data[d.i:]; len(rest) >= 6 && rest[0] == '\\' && rest[1] == 'u' {
			if lo := hexValue(rest[2:6]); lo >= 0 {
				if pair := utf16.DecodeRune(r, lo); pair != utf8.RuneError {
					d.i += 6
					return pair
				}
			}
		}
		return utf8.RuneError
	}
	if d.i+2 > len(d.data) || d.data[d.i] != '\\' || d.data[d.i+1] != 'u' {
		d.Fail("lone surrogate escape")
	}
	d.i += 2
	if r = utf16.DecodeRune(r, d.hex4()); r == utf8.RuneError {
		d.Fail("invalid surrogate pair")
	}
	return r
}

func (d *Decoder) hex4() rune {
	rest := d.data[d.i:]
	if len(rest) < 4 {
		if hexValue(rest) >= 0 {
			d.failEnd()
		}
		d.Fail("invalid \\u escape")
	}
	r := hexValue(rest[:4])
	if r < 0 {
		d.Fail("invalid \\u escape")
	}
	d.i += 4
	return r
}

// hexValue returns the value of up to four hex digits, or -1.
func hexValue(h []byte) rune {
	var r rune
	for _, c := range h {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Str reads a string value.
func (d *Decoder) Str() string { return d.intern(d.StrBytes()) }

func (d *Decoder) intern(b []byte) string {
	if s, ok := d.Known[string(b)]; ok {
		return s
	}
	return string(b)
}

// Number reads one JSON number token and returns its bytes.
func (d *Decoder) Number() []byte {
	d.ws()
	start := d.i
	if d.i < len(d.data) && d.data[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.data) && d.data[d.i] == '0' {
		d.i++
	} else if !d.digits() {
		d.Fail("expected a number")
	}
	if d.i < len(d.data) && d.data[d.i] == '.' {
		d.i++
		if !d.digits() {
			d.Fail("expected a digit after '.'")
		}
	}
	if d.i < len(d.data) && (d.data[d.i] == 'e' || d.data[d.i] == 'E') {
		d.i++
		if d.i < len(d.data) && (d.data[d.i] == '+' || d.data[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			d.Fail("expected a digit in the exponent")
		}
	}
	return d.data[start:d.i]
}

func (d *Decoder) digits() bool {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// digitsValue converts a number token's digits to an integer no larger
// than max. Like encoding/json, it refuses a sign, a fraction or an
// exponent even when the value is whole.
func (d *Decoder) digitsValue(tok []byte, max uint64) uint64 {
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			d.Fail("expected an integer")
		}
		if v > (max-uint64(c-'0'))/10 {
			d.Fail("integer out of range")
		}
		v = v*10 + uint64(c-'0')
	}
	return v
}

// Uint reads an integer in [0, max].
func (d *Decoder) Uint(max uint64) uint64 { return d.digitsValue(d.Number(), max) }

// Signed reads an integer in [-max-1, max].
func (d *Decoder) Signed(max uint64) int64 {
	tok := d.Number()
	if tok[0] == '-' {
		return -int64(d.digitsValue(tok[1:], max+1))
	}
	return int64(d.digitsValue(tok, max))
}

func (d *Decoder) Int() int { return int(d.Signed(math.MaxInt)) }

func (d *Decoder) Int64() int64 { return d.Signed(math.MaxInt64) }

func (d *Decoder) Float() float64 {
	tok := d.Number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.Fail("number out of range")
	}
	return f
}

func (d *Decoder) Bool() bool {
	if d.Literal("true") {
		return true
	}
	if d.Literal("false") {
		return false
	}
	d.Fail("expected a boolean")
	return false
}

// Skip reads past one value of any kind, checking it as encoding/json's
// scanner checks it.
func (d *Decoder) Skip() {
	switch d.Peek() {
	case '{':
		d.Expect('{')
		for n := 0; d.More('}', n); n++ {
			d.skipString()
			d.Expect(':')
			d.Skip()
		}
	case '[':
		d.Expect('[')
		for n := 0; d.More(']', n); n++ {
			d.Skip()
		}
	case '"':
		d.skipString()
	case 't':
		d.Literal("true")
	case 'f':
		d.Literal("false")
	case 'n':
		d.Literal("null")
	default:
		d.Number()
	}
}

// skipString reads past a string without unescaping it.
func (d *Decoder) skipString() {
	d.Expect('"')
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return
		case c == '\\':
			if d.i+1 == len(d.data) {
				d.failEnd()
			}
			switch d.data[d.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i += 2
			case 'u':
				d.i += 2
				d.hex4()
			default:
				d.i++
				d.Fail("invalid escape")
			}
		case c < ' ':
			d.Fail("control byte in string")
		default:
			d.i++
		}
	}
	d.failEnd()
}

// The Into readers store a value as encoding/json stores it into a Go value
// of that type: null leaves a string, number or bool as it was, and sets a
// pointer, slice or map to nil.

func (d *Decoder) IntInto(p *int) {
	if !d.Null() {
		*p = d.Int()
	}
}

func (d *Decoder) FloatInto(p *float64) {
	if !d.Null() {
		*p = d.Float()
	}
}

func (d *Decoder) StrInto(p *string) {
	if !d.Null() {
		*p = d.Str()
	}
}

func (d *Decoder) BoolInto(p *bool) {
	if !d.Null() {
		*p = d.Bool()
	}
}

// FloatPtrInto reads a number into the float *p points to, allocating it if
// *p is nil.
func (d *Decoder) FloatPtrInto(p **float64) {
	if d.Null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(float64)
	}
	**p = d.Float()
}

// StrMapInto reads an object into the map *p, making it if *p is nil; a
// repeated key keeps its last value, and members merge into what the map
// already holds.
func (d *Decoder) StrMapInto(p *map[string]string) {
	if d.Null() {
		*p = nil
		return
	}
	d.Expect('{')
	if *p == nil {
		*p = make(map[string]string)
	}
	for n := 0; d.More('}', n); n++ {
		k := d.intern(d.Key())
		var v string
		d.StrInto(&v)
		(*p)[k] = v
	}
}

// Slice reads an array into the slice *s in place, as encoding/json does:
// elements past the old length but within its capacity keep what an
// earlier decode left there, elem decodes element i into v, and an empty
// array is an empty slice, not nil.
func Slice[T any](d *Decoder, s *[]T, elem func(i int, v *T)) {
	if d.Null() {
		*s = nil
		return
	}
	d.Expect('[')
	v := *s
	i := 0
	for ; d.More(']', i); i++ {
		if i == cap(v) {
			v = slices.Grow(v, 1)
		}
		if i >= len(v) {
			v = v[:i+1]
		}
		elem(i, &v[i])
	}
	v = v[:i]
	if i == 0 {
		v = []T{}
	}
	*s = v
}
