// Remote hidden-database adapter: lets the reranking service treat any HTTP
// top-k search endpoint (such as cmd/hiddendb, or a scraper shim in front of
// a real web database) as a hidden.Database. This is the deployment §1
// describes — the reranker holds no data, only the public search interface.

package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/hidden"
	"repro/internal/jsonwire"
	"repro/internal/query"
	"repro/internal/types"
)

// SearchRequest is the wire form of one top-k search query (the hiddendb
// protocol).
type SearchRequest struct {
	Ranges  []RangeSpec       `json:"ranges,omitempty"`
	Filters map[string]string `json:"filters,omitempty"`
}

// SearchResponse is the hiddendb search answer.
type SearchResponse struct {
	Tuples   []WireTuple `json:"tuples"`
	Overflow bool        `json:"overflow"`
}

// WireTuple is a tuple over the wire, keyed by attribute name.
type WireTuple struct {
	ID  int                `json:"id"`
	Ord map[string]float64 `json:"ord"`
	Cat map[string]string  `json:"cat,omitempty"`
}

// SchemaResponse describes the upstream search interface.
type SchemaResponse struct {
	K     int        `json:"k"`
	Attrs []AttrSpec `json:"attrs"`
}

// AttrSpec is one attribute of the upstream schema.
type AttrSpec struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"` // "ordinal" or "categorical"
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
	Values []string `json:"values,omitempty"`
}

// RemoteDB implements hidden.Database over the hiddendb HTTP protocol.
type RemoteDB struct {
	baseURL string
	client  *http.Client
	schema  *types.Schema
	k       int
	known   map[string]string // attribute names and category values, shared by decoded answers
}

// DialRemote fetches the remote schema and returns a ready database handle.
func DialRemote(baseURL string, client *http.Client) (*RemoteDB, error) {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := client.Get(baseURL + "/v1/schema")
	if err != nil {
		return nil, fmt.Errorf("fetch remote schema: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch remote schema: status %s", resp.Status)
	}
	var sr SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("decode remote schema: %w", err)
	}
	attrs := make([]types.Attribute, 0, len(sr.Attrs))
	for _, a := range sr.Attrs {
		switch a.Kind {
		case "ordinal":
			attrs = append(attrs, types.Attribute{
				Name: a.Name, Kind: types.Ordinal,
				Domain: types.Domain{Min: a.Min, Max: a.Max},
			})
		case "categorical":
			attrs = append(attrs, types.Attribute{
				Name: a.Name, Kind: types.Categorical, Values: a.Values,
			})
		default:
			return nil, fmt.Errorf("remote attribute %q has unknown kind %q", a.Name, a.Kind)
		}
	}
	schema, err := types.NewSchema(attrs)
	if err != nil {
		return nil, fmt.Errorf("invalid remote schema: %w", err)
	}
	if sr.K < 1 {
		return nil, fmt.Errorf("remote reports invalid k=%d", sr.K)
	}
	known := make(map[string]string)
	for _, a := range attrs {
		known[a.Name] = a.Name
		for _, v := range a.Values {
			known[v] = v
		}
	}
	return &RemoteDB{baseURL: baseURL, client: client, schema: schema, k: sr.K, known: known}, nil
}

// TopK implements hidden.Database. The search request lists its ranges in
// schema-attribute order, so one probe always has one wire form; the answer
// is decoded in one pass straight into rows of the schema.
func (r *RemoteDB) TopK(q query.Query) (hidden.Result, error) {
	body, err := r.searchBody(q)
	if err != nil {
		return hidden.Result{}, err
	}
	resp, err := r.client.Post(r.baseURL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return hidden.Result{}, fmt.Errorf("remote search: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return hidden.Result{}, hidden.ErrRateLimited
	}
	if resp.StatusCode != http.StatusOK {
		return hidden.Result{}, fmt.Errorf("remote search: status %s", resp.Status)
	}
	buf := bodyBuffers.Get().(*bytes.Buffer)
	defer bodyBuffers.Put(buf)
	buf.Reset()
	_, readErr := buf.ReadFrom(resp.Body)
	res, err := r.decodeAnswer(buf.Bytes(), readErr != nil)
	if err != nil {
		if readErr != nil && errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("decode remote search answer: %w", readErr)
		}
		return hidden.Result{}, err
	}
	return res, nil
}

// searchBody encodes q as a SearchRequest: the bytes json.Marshal writes
// for it, with the ranges in schema-attribute order and the filters by name,
// the order q holds them in.
func (r *RemoteDB) searchBody(q query.Query) ([]byte, error) {
	e := jsonwire.Get()
	defer jsonwire.Put(e)
	e.Buf = append(e.Buf, '{')
	if rs := q.Ranges(); len(rs) > 0 {
		e.Field("ranges")
		e.Buf = append(e.Buf, '[')
		for i, rg := range rs {
			iv := rg.Iv
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.Buf = append(e.Buf, `{"attr":`...)
			e.Str(r.schema.Attr(rg.Attr).Name)
			if !isNegInf(iv.Lo) {
				e.Buf = append(e.Buf, `,"min":`...)
				e.Float(iv.Lo)
			}
			if !isPosInf(iv.Hi) {
				e.Buf = append(e.Buf, `,"max":`...)
				e.Float(iv.Hi)
			}
			if iv.LoOpen {
				e.Buf = append(e.Buf, `,"minOpen":true`...)
			}
			if iv.HiOpen {
				e.Buf = append(e.Buf, `,"maxOpen":true`...)
			}
			e.Buf = append(e.Buf, '}')
		}
		e.Buf = append(e.Buf, ']')
	}
	if cs := q.Cats(); len(cs) > 0 {
		e.Field("filters")
		e.Buf = append(e.Buf, '{')
		for i, c := range cs {
			if i > 0 {
				e.Buf = append(e.Buf, ',')
			}
			e.Str(c.Name)
			e.Buf = append(e.Buf, ':')
			e.Str(c.Value)
		}
		e.Buf = append(e.Buf, '}')
	}
	e.Buf = append(e.Buf, '}')
	if e.Err != nil {
		return nil, e.Err
	}
	return bytes.Clone(e.Buf), nil
}

var (
	searchAnswerFields = jsonwire.NewFields("tuples", "overflow")
	wireTupleFields    = jsonwire.NewFields("id", "ord", "cat")
)

// decodeAnswer reads a search answer into rows of r's schema in one pass:
// the result json.Decoder would give for a SearchResponse, each WireTuple's
// ord map laid into a row by attribute index (zeros where it names none).
// An ord key the schema lacks fails the answer, as it did when the map was
// converted after decoding: so a row's unknown key is remembered until the
// row is whole, and forgotten only if a later "ord": null empties the map.
func (r *RemoteDB) decodeAnswer(data []byte, truncated bool) (hidden.Result, error) {
	var (
		d     jsonwire.Decoder
		res   hidden.Result
		rows  []types.Tuple
		bad   map[int]string // row -> an ord key the schema lacks
		arena []float64
	)
	d.Known = r.known
	width, chunk := r.schema.Len(), 4
	newOrd := func() []float64 {
		if len(arena) < width {
			arena = make([]float64, chunk*width)
			chunk *= 2
		}
		o := arena[:width:width]
		arena = arena[width:]
		return o
	}
	row := func(i int, t *types.Tuple) {
		if d.Null() {
			return
		}
		d.Expect('{')
		for n := 0; d.More('}', n); n++ {
			switch d.Member(wireTupleFields) {
			case "id":
				d.IntInto(&t.ID)
			case "ord":
				if d.Null() {
					t.Ord = nil
					delete(bad, i)
					continue
				}
				d.Expect('{')
				if t.Ord == nil {
					t.Ord = newOrd()
				}
				for m := 0; d.More('}', m); m++ {
					name := d.Key()
					a := r.schema.Index(string(name))
					if a < 0 {
						if bad == nil {
							bad = make(map[int]string)
						}
						bad[i] = string(name)
					}
					var v float64 // a map value decodes from its zero
					d.FloatInto(&v)
					if a >= 0 {
						t.Ord[a] = v
					}
				}
			case "cat":
				d.StrMapInto(&t.Cat)
			default:
				d.Skip()
			}
		}
	}
	err := d.First(data, truncated, func() {
		if d.Null() {
			return
		}
		d.Expect('{')
		for n := 0; d.More('}', n); n++ {
			switch d.Member(searchAnswerFields) {
			case "tuples":
				if rows == nil && d.Peek() == '[' {
					// An answer holds at most k rows. (Capacity is not
					// observable: growing a slice copies all it held.)
					rows = make([]types.Tuple, 0, r.k)
				}
				jsonwire.Slice(&d, &rows, row)
				if len(rows) == 0 {
					clear(bad)
				}
			case "overflow":
				d.BoolInto(&res.Overflow)
			default:
				d.Skip()
			}
		}
	})
	if err != nil {
		return hidden.Result{}, fmt.Errorf("decode remote search answer: %w", err)
	}
	for i := range rows {
		if name, ok := bad[i]; ok {
			return hidden.Result{}, fmt.Errorf("remote tuple %d has unknown attribute %q", rows[i].ID, name)
		}
		if rows[i].Ord == nil {
			rows[i].Ord = newOrd()
		}
	}
	if len(rows) > 0 {
		res.Tuples = rows
	}
	return res, nil
}

// K implements hidden.Database.
func (r *RemoteDB) K() int { return r.k }

// Schema implements hidden.Database.
func (r *RemoteDB) Schema() *types.Schema { return r.schema }

func isNegInf(v float64) bool { return v < -1e308 }
func isPosInf(v float64) bool { return v > 1e308 }

// schemaResponse renders a schema plus system-k in the wire form both
// hiddendb's and the rerank service's /v1/schema endpoints serve.
func schemaResponse(schema *types.Schema, k int) SchemaResponse {
	sr := SchemaResponse{K: k}
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		spec := AttrSpec{Name: a.Name}
		if a.Kind == types.Ordinal {
			spec.Kind = "ordinal"
			spec.Min, spec.Max = a.Domain.Min, a.Domain.Max
		} else {
			spec.Kind = "categorical"
			spec.Values = a.Values
		}
		sr.Attrs = append(sr.Attrs, spec)
	}
	return sr
}

// HiddenDBHandler serves a *hidden.DB over the hiddendb HTTP protocol
// (the counterpart of RemoteDB, used by cmd/hiddendb and tests).
func HiddenDBHandler(db *hidden.DB) http.Handler {
	mux := http.NewServeMux()
	schema := db.Schema()
	mux.HandleFunc("GET /v1/schema", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, schemaResponse(schema, db.K()))
	})
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("decode search: %w", err))
			return
		}
		q := query.New()
		for _, rs := range req.Ranges {
			idx := schema.Index(rs.Attr)
			if idx < 0 || schema.Attr(idx).Kind != types.Ordinal {
				httpError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("unknown ordinal attribute %q", rs.Attr))
				return
			}
			iv := types.FullInterval()
			if rs.Min != nil {
				iv.Lo, iv.LoOpen = *rs.Min, rs.MinOpen
			}
			if rs.Max != nil {
				iv.Hi, iv.HiOpen = *rs.Max, rs.MaxOpen
			}
			q = q.WithRange(idx, iv)
		}
		for name, val := range req.Filters {
			q = q.WithCat(name, val)
		}
		res, err := db.TopK(q)
		if err == hidden.ErrRateLimited {
			httpError(w, http.StatusTooManyRequests, ErrCodeUpstreamRateLimited, err)
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, ErrCodeUpstreamFailed, err)
			return
		}
		out := SearchResponse{Overflow: res.Overflow}
		for _, t := range res.Tuples {
			wt := WireTuple{ID: t.ID, Ord: map[string]float64{}, Cat: t.Cat}
			for _, i := range schema.OrdinalIndexes() {
				wt.Ord[schema.Attr(i).Name] = t.Ord[i]
			}
			out.Tuples = append(out.Tuples, wt)
		}
		writeJSON(w, http.StatusOK, out)
	})
	// POST /v1/mutate edits one tuple's ordinal value in place — the drift
	// injection hook tests and the e2e harness use to make the hidden corpus
	// "live" so sentinel passes have something to detect. Real upstreams
	// obviously drift on their own; cmd/hiddendb needs to be told to.
	mux.HandleFunc("POST /v1/mutate", func(w http.ResponseWriter, r *http.Request) {
		var req MutateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("decode mutate: %w", err))
			return
		}
		idx := schema.Index(req.Attr)
		if idx < 0 || schema.Attr(idx).Kind != types.Ordinal {
			httpError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("unknown ordinal attribute %q", req.Attr))
			return
		}
		if !db.SetOrd(req.ID, idx, req.Value) {
			httpError(w, http.StatusNotFound, ErrCodeBadRequest, fmt.Errorf("no tuple with id %d", req.ID))
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// MutateRequest is the POST /v1/mutate body of the hiddendb protocol: set
// tuple ID's ordinal attribute (by name) to Value.
type MutateRequest struct {
	ID    int     `json:"id"`
	Attr  string  `json:"attr"`
	Value float64 `json:"value"`
}
