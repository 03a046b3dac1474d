// Package jsonwire holds the primitives of the repository's hand-written
// JSON codecs: an encoder that appends exactly the bytes encoding/json writes
// for the value kinds it covers, and a one-pass decoder over a complete
// input. The segment store (internal/segment) and the serving wire
// (internal/service) build their typed encoders and decoders on them, so
// there is one JSON codec, not one per layer.
//
// The decoder has two modes. Whole is strict: it reads exactly one value and
// refuses raw invalid UTF-8, lone surrogate escapes and trailing bytes, for
// bytes the repository wrote itself. First reads what encoding/json reads
// from a stream: the first value, with invalid UTF-8 and lone surrogates
// turned into U+FFFD, and whatever follows left unread.
package jsonwire

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Encoder appends the JSON form of values to Buf. A value encoding/json
// cannot encode (a non-finite float) sets Err and leaves Buf unusable.
type Encoder struct {
	Buf  []byte
	Err  error
	keys []string // map-key scratch, sorted per map
}

var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// Get returns an empty encoder from the pool; Put returns it. Pooling pays a
// buffer's growth once, not once per value.
func Get() *Encoder {
	e := encoders.Get().(*Encoder)
	e.Buf, e.Err = e.Buf[:0], nil
	return e
}

// Put returns e to the pool; its Buf must no longer be used.
func Put(e *Encoder) { encoders.Put(e) }

// Field appends an object key, preceded by a comma unless it opens the
// object (a value never ends in '{', so the last byte tells). The name must
// need no escaping.
func (e *Encoder) Field(name string) {
	if e.Buf[len(e.Buf)-1] != '{' {
		e.Buf = append(e.Buf, ',')
	}
	e.Buf = append(e.Buf, '"')
	e.Buf = append(e.Buf, name...)
	e.Buf = append(e.Buf, '"', ':')
}

func (e *Encoder) Int(v int64) { e.Buf = strconv.AppendInt(e.Buf, v, 10) }

func (e *Encoder) Uint(v uint64) { e.Buf = strconv.AppendUint(e.Buf, v, 10) }

func (e *Encoder) Bool(v bool) { e.Buf = strconv.AppendBool(e.Buf, v) }

// Float appends f as encoding/json does: ES6 number formatting, with the
// exponent form below 1e-6 and from 1e21 on, and no zero-padded exponent.
func (e *Encoder) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.Err == nil {
			e.Err = fmt.Errorf("jsonwire: unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		e.Buf = append(e.Buf, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.Buf = strconv.AppendFloat(e.Buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(e.Buf)
		if n >= 4 && e.Buf[n-4] == 'e' && e.Buf[n-3] == '-' && e.Buf[n-2] == '0' {
			e.Buf[n-2] = e.Buf[n-1]
			e.Buf = e.Buf[:n-1]
		}
	}
}

// HexDigits are the lower-case hexadecimal digits, as escapes write them.
const HexDigits = "0123456789abcdef"

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

// Str appends s quoted and escaped as encoding/json does: HTML characters
// and control bytes as \u00XX (except the five short escapes), invalid UTF-8
// as \ufffd and U+2028/U+2029 as \u202X.
func (e *Encoder) Str(s string) {
	b := append(e.Buf, '"')
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
				b = append(b, '\\', 'u', '0', '0', HexDigits[c>>4], HexDigits[c&0xF])
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
			b = append(b, '\\', 'u', '2', '0', '2', HexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.Buf = append(b, '"')
}

// StrMap appends a string map with its keys in sorted order; nil is null.
func (e *Encoder) StrMap(m map[string]string) {
	if m == nil {
		e.Buf = append(e.Buf, "null"...)
		return
	}
	keys := sortedKeys(e, m)
	e.Buf = append(e.Buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.Buf = append(e.Buf, ',')
		}
		e.Str(k)
		e.Buf = append(e.Buf, ':')
		e.Str(m[k])
	}
	e.Buf = append(e.Buf, '}')
	e.releaseKeys(keys)
}

// FloatMap appends a float map with its keys in sorted order; nil is null.
func (e *Encoder) FloatMap(m map[string]float64) {
	if m == nil {
		e.Buf = append(e.Buf, "null"...)
		return
	}
	keys := sortedKeys(e, m)
	e.Buf = append(e.Buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.Buf = append(e.Buf, ',')
		}
		e.Str(k)
		e.Buf = append(e.Buf, ':')
		e.Float(m[k])
	}
	e.Buf = append(e.Buf, '}')
	e.releaseKeys(keys)
}

// sortedKeys collects m's keys into e's scratch, sorted as encoding/json
// sorts them: by their unescaped bytes.
func sortedKeys[V any](e *Encoder, m map[string]V) []string {
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (e *Encoder) releaseKeys(keys []string) {
	clear(keys)
	e.keys = keys[:0]
}
