// The serving wire's hand-written codec. Every rerank, batch and stream
// response body, and every error envelope, is appended into a pooled buffer
// by the encoders below, byte for byte what json.Encoder.Encode writes for
// the same value (sorted map keys, HTML escapes, ES6 floats, the omitempty
// fields, a trailing newline). Request bodies are read by decoders that
// accept exactly what json.Decoder.Decode accepts, into equal values:
// unknown keys are skipped, keys match fields case-insensitively, null
// leaves a scalar or struct alone and sets a slice, map or pointer to nil,
// and bytes after the first value are ignored. The struct tags stay as the
// reference the tests compare the codec against; the primitives are
// package jsonwire's, which the segment store shares.

package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/jsonwire"
)

// wireValue is a response body the wire encoder writes.
type wireValue interface {
	appendJSON(e *jsonwire.Encoder)
}

// writeWire encodes v, then writes it with status. Encoding comes before the
// status line, so a value encoding/json refuses (a non-finite score) is
// answered with a 500 envelope instead of a 200 with an empty body.
func writeWire(w http.ResponseWriter, status int, v wireValue) {
	e := jsonwire.Get()
	defer jsonwire.Put(e)
	v.appendJSON(e)
	if e.Err != nil {
		err := fmt.Errorf("encode response: %w", e.Err)
		e.Buf, e.Err = e.Buf[:0], nil
		status = http.StatusInternalServerError
		errorEnvelope{Error: errorInfo(ErrCodeInternal, err)}.appendJSON(e)
	}
	e.Buf = append(e.Buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.Buf)
}

func (r *RerankResponse) appendJSON(e *jsonwire.Encoder) {
	e.Buf = append(e.Buf, `{"tuples":`...)
	if r.Tuples == nil {
		e.Buf = append(e.Buf, "null"...)
	} else {
		e.Buf = append(e.Buf, '[')
		for i := range r.Tuples {
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			r.Tuples[i].appendJSON(e)
		}
		e.Buf = append(e.Buf, ']')
	}
	e.Buf = append(e.Buf, `,"exhausted":`...)
	e.Bool(r.Exhausted)
	e.Buf = append(e.Buf, `,"queriesIssued":`...)
	e.Int(r.QueriesIssued)
	e.Buf = append(e.Buf, `,"engineQueries":`...)
	e.Int(r.EngineQueries)
	e.Buf = append(e.Buf, `,"epoch":`...)
	e.Int(r.Epoch)
	e.Buf = append(e.Buf, '}')
}

func (t *TupleJSON) appendJSON(e *jsonwire.Encoder) {
	e.Buf = append(e.Buf, `{"id":`...)
	e.Int(int64(t.ID))
	e.Buf = append(e.Buf, `,"score":`...)
	e.Float(t.Score)
	e.Buf = append(e.Buf, `,"ord":`...)
	e.FloatMap(t.Ord)
	if len(t.Cat) > 0 {
		e.Buf = append(e.Buf, `,"cat":`...)
		e.StrMap(t.Cat)
	}
	e.Buf = append(e.Buf, '}')
}

func (r *BatchResponse) appendJSON(e *jsonwire.Encoder) {
	e.Buf = append(e.Buf, `{"items":`...)
	if r.Items == nil {
		e.Buf = append(e.Buf, "null"...)
	} else {
		e.Buf = append(e.Buf, '[')
		for i := range r.Items {
			it := &r.Items[i]
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.Buf = append(e.Buf, `{"status":`...)
			e.Int(int64(it.Status))
			if it.Error != nil {
				e.Buf = append(e.Buf, `,"error":`...)
				it.Error.appendJSON(e)
			}
			if it.Response != nil {
				e.Buf = append(e.Buf, `,"response":`...)
				it.Response.appendJSON(e)
			}
			e.Buf = append(e.Buf, '}')
		}
		e.Buf = append(e.Buf, ']')
	}
	e.Buf = append(e.Buf, `,"queriesIssued":`...)
	e.Int(r.QueriesIssued)
	e.Buf = append(e.Buf, `,"engineQueries":`...)
	e.Int(r.EngineQueries)
	e.Buf = append(e.Buf, '}')
}

func (ev *StreamEvent) appendJSON(e *jsonwire.Encoder) {
	e.Buf = append(e.Buf, '{')
	if ev.Tuple != nil {
		e.Field("tuple")
		ev.Tuple.appendJSON(e)
	}
	e.Field("cumQueries")
	e.Int(ev.CumQueries)
	if ev.Done {
		e.Buf = append(e.Buf, `,"done":true`...)
	}
	if ev.Exhausted {
		e.Buf = append(e.Buf, `,"exhausted":true`...)
	}
	if ev.QueriesIssued != 0 {
		e.Buf = append(e.Buf, `,"queriesIssued":`...)
		e.Int(ev.QueriesIssued)
	}
	if ev.EngineQueries != 0 {
		e.Buf = append(e.Buf, `,"engineQueries":`...)
		e.Int(ev.EngineQueries)
	}
	if ev.Error != nil {
		e.Buf = append(e.Buf, `,"error":`...)
		ev.Error.appendJSON(e)
	}
	if ev.Status != 0 {
		e.Buf = append(e.Buf, `,"status":`...)
		e.Int(int64(ev.Status))
	}
	e.Buf = append(e.Buf, '}')
}

func (info *ErrorInfo) appendJSON(e *jsonwire.Encoder) {
	e.Buf = append(e.Buf, `{"code":`...)
	e.Str(info.Code)
	e.Buf = append(e.Buf, `,"message":`...)
	e.Str(info.Message)
	if info.RetryAfterSec != 0 {
		e.Buf = append(e.Buf, `,"retryAfterSec":`...)
		e.Int(info.RetryAfterSec)
	}
	e.Buf = append(e.Buf, '}')
}

func (env errorEnvelope) appendJSON(e *jsonwire.Encoder) {
	e.Buf = append(e.Buf, `{"error":`...)
	if env.Error == nil {
		e.Buf = append(e.Buf, "null"...)
	} else {
		env.Error.appendJSON(e)
	}
	e.Buf = append(e.Buf, '}')
}

// wireRequest is a request body the wire decoder reads.
type wireRequest interface {
	decodeJSON(d *jsonwire.Decoder)
}

var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody decodes a size-capped JSON request body into v: a serving
// request with the wire decoder, anything else (the registry's bodies) with
// encoding/json. The error is already written to w when ok is false: 413
// when the body exceeds MaxBodyBytes before its first value ends, 400
// otherwise. As with json.Decoder, what follows the first value is not read.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bodyBuffers.Get().(*bytes.Buffer)
	defer bodyBuffers.Put(buf)
	buf.Reset()
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	var err error
	if wr, ok := v.(wireRequest); ok {
		var d jsonwire.Decoder
		err = d.First(buf.Bytes(), readErr != nil, func() { wr.decodeJSON(&d) })
	} else if err = json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(v); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err == nil {
		return true
	}
	if readErr != nil && errors.Is(err, io.ErrUnexpectedEOF) {
		var tooLarge *http.MaxBytesError
		if errors.As(readErr, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		err = readErr
	}
	httpError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("decode request: %w", err))
	return false
}

var (
	batchRequestFields  = jsonwire.NewFields("requests")
	rerankRequestFields = jsonwire.NewFields("ranges", "filters", "ranking", "h", "algorithm")
	rangeSpecFields     = jsonwire.NewFields("attr", "min", "max", "minOpen", "maxOpen")
	rankingSpecFields   = jsonwire.NewFields("kind", "attrs", "weights", "desc")
)

func (b *BatchRequest) decodeJSON(d *jsonwire.Decoder) {
	if d.Null() {
		return
	}
	d.Expect('{')
	for n := 0; d.More('}', n); n++ {
		switch d.Member(batchRequestFields) {
		case "requests":
			jsonwire.Slice(d, &b.Requests, func(_ int, r *RerankRequest) { r.decodeJSON(d) })
		default:
			d.Skip()
		}
	}
}

func (r *RerankRequest) decodeJSON(d *jsonwire.Decoder) {
	if d.Null() {
		return
	}
	d.Expect('{')
	for n := 0; d.More('}', n); n++ {
		switch d.Member(rerankRequestFields) {
		case "ranges":
			jsonwire.Slice(d, &r.Ranges, func(_ int, rs *RangeSpec) { rs.decodeJSON(d) })
		case "filters":
			d.StrMapInto(&r.Filters)
		case "ranking":
			r.Ranking.decodeJSON(d)
		case "h":
			d.IntInto(&r.H)
		case "algorithm":
			d.StrInto(&r.Algorithm)
		default:
			d.Skip()
		}
	}
}

func (rs *RangeSpec) decodeJSON(d *jsonwire.Decoder) {
	if d.Null() {
		return
	}
	d.Expect('{')
	for n := 0; d.More('}', n); n++ {
		switch d.Member(rangeSpecFields) {
		case "attr":
			d.StrInto(&rs.Attr)
		case "min":
			d.FloatPtrInto(&rs.Min)
		case "max":
			d.FloatPtrInto(&rs.Max)
		case "minOpen":
			d.BoolInto(&rs.MinOpen)
		case "maxOpen":
			d.BoolInto(&rs.MaxOpen)
		default:
			d.Skip()
		}
	}
}

func (k *RankingSpec) decodeJSON(d *jsonwire.Decoder) {
	if d.Null() {
		return
	}
	d.Expect('{')
	for n := 0; d.More('}', n); n++ {
		switch d.Member(rankingSpecFields) {
		case "kind":
			d.StrInto(&k.Kind)
		case "attrs":
			jsonwire.Slice(d, &k.Attrs, func(_ int, s *string) { d.StrInto(s) })
		case "weights":
			jsonwire.Slice(d, &k.Weights, func(_ int, f *float64) { d.FloatInto(f) })
		case "desc":
			d.BoolInto(&k.Desc)
		default:
			d.Skip()
		}
	}
}
