// Package service implements "query reranking as a service" over HTTP: the
// third-party deployment the paper's title promises. A Server fronts a
// table of upstream namespaces — one isolated reranking engine per
// registered hidden database — and exposes the federated serving API:
//
//	GET    /v1/upstreams                          -> registered upstreams (name, url, fingerprint, schema, stats)
//	POST   /v1/upstreams                          {name, url} -> dial + register a new upstream namespace
//	GET    /v1/upstreams/{ns}                     -> one upstream's descriptor
//	DELETE /v1/upstreams/{ns}                     -> deregister (finalizes its persistence)
//	POST   /v1/upstreams/{ns}/rerank{,/batch,/stream}  -> namespace-scoped reranking
//	GET    /v1/upstreams/{ns}/stats               -> one namespace's counters
//	GET    /v1/upstreams/{ns}/schema              -> one namespace's upstream schema
//	GET    /v1/stats                              -> service-level counters + per-upstream counters
//	GET    /metrics                               -> the same counters in Prometheus text format
//	GET    /healthz                               -> liveness (503 once draining)
//
// Every request names its namespace in the path; see docs/api.md.
//
// Isolation model: nothing learned from one upstream is valid against
// another — history tuples, crawled regions and probe answers are all
// statements about one corpus — so a namespace is a hard isolation unit.
// Each owns its history, crawled regions, fact index, in-flight probes,
// query-cost ledger, and (with a data dir) its own segment store under
// data-dir/<ns>/. Admission capacity is the one shared resource, since
// in-flight sessions compete for the same goroutines and memory whichever
// upstream they probe: Options.MaxSessions bounds them across all
// namespaces through one weighted gate (excess requests get 429 +
// Retry-After; a batch of N weighs N, scaled by the namespace's admission
// weight, so an expensive upstream can claim more of the bound).
// Options.ClientBudget meters upstream queries per client across
// namespaces, request bodies are size-capped, and BeginDrain stops
// admission for graceful shutdown. Every non-2xx response carries the
// {"error":{code,message,retryAfterSec}} envelope (see errors.go).
//
// Upstream databases can be in-process (a *hidden.DB) or remote — see
// remote.go for the adapter that speaks to any HTTP top-k search endpoint
// such as cmd/hiddendb.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// DefaultUpstream is the namespace name the single-upstream constructors
// register, and the one a Client addresses unless pinned to another.
const DefaultUpstream = "default"

// RankingSpec describes a user ranking function over the wire.
type RankingSpec struct {
	// Kind is "linear", "single", or "ratio".
	Kind string `json:"kind"`
	// Attrs are attribute names (resolved against the upstream schema).
	Attrs []string `json:"attrs"`
	// Weights parameterize "linear" (same length as Attrs).
	Weights []float64 `json:"weights,omitempty"`
	// Desc marks a "single" ranking as descending.
	Desc bool `json:"desc,omitempty"`
}

// RangeSpec is one range predicate over the wire.
type RangeSpec struct {
	Attr    string   `json:"attr"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	MinOpen bool     `json:"minOpen,omitempty"`
	MaxOpen bool     `json:"maxOpen,omitempty"`
}

// RerankRequest is the rerank request body.
type RerankRequest struct {
	Ranges    []RangeSpec       `json:"ranges,omitempty"`
	Filters   map[string]string `json:"filters,omitempty"`
	Ranking   RankingSpec       `json:"ranking"`
	H         int               `json:"h"`                   // how many answers
	Algorithm string            `json:"algorithm,omitempty"` // "rerank" (default), "baseline", "binary", "ta"
}

// TupleJSON is one ranked answer over the wire.
type TupleJSON struct {
	ID    int                `json:"id"`
	Score float64            `json:"score"`
	Ord   map[string]float64 `json:"ord"`
	Cat   map[string]string  `json:"cat,omitempty"`
}

// RerankResponse is the rerank response body.
type RerankResponse struct {
	Tuples    []TupleJSON `json:"tuples"`
	Exhausted bool        `json:"exhausted"`
	// QueriesIssued is the number of upstream search queries this request
	// cost — the paper's performance measure, surfaced to clients. Probes
	// the engine deduplicates (answered by another in-flight request or a
	// recent complete answer) cost nothing and are charged once, to the
	// request that actually issued them.
	QueriesIssued int64 `json:"queriesIssued"`
	// EngineQueries is the namespace engine's lifetime upstream query count.
	EngineQueries int64 `json:"engineQueries"`
	// Epoch is the namespace's knowledge epoch the answer was computed
	// under (also sent as the X-Knowledge-Epoch response header).
	Epoch int64 `json:"epoch"`
}

// resolveTenant picks the namespace the {ns} path wildcard names; an unknown
// one is a 404, whose error envelope is already written when ok is false.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	name := r.PathValue("ns")
	t, ok := s.tenantFor(name)
	if !ok {
		httpError(w, http.StatusNotFound, ErrCodeUnknownUpstream, unknownUpstreamErr(name))
		return nil, false
	}
	return t, true
}

func unknownUpstreamErr(name string) error {
	if name == "" {
		return errors.New("no upstreams registered")
	}
	return fmt.Errorf("unknown upstream %q", name)
}

// Handler returns the HTTP handler for the service API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Registry API.
	mux.HandleFunc("GET /v1/upstreams", s.handleListUpstreams)
	mux.HandleFunc("POST /v1/upstreams", s.handleRegisterUpstream)
	mux.HandleFunc("GET /v1/upstreams/{ns}", s.handleGetUpstream)
	mux.HandleFunc("POST /v1/upstreams/{ns}/revalidate", s.handleRevalidate)
	mux.HandleFunc("DELETE /v1/upstreams/{ns}", s.handleDeregisterUpstream)
	// Namespace-scoped serving surface.
	mux.HandleFunc("POST /v1/upstreams/{ns}/rerank", s.handleRerank)
	mux.HandleFunc("POST /v1/upstreams/{ns}/rerank/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/upstreams/{ns}/rerank/stream", s.handleStream)
	mux.HandleFunc("GET /v1/upstreams/{ns}/stats", s.handleUpstreamStats)
	mux.HandleFunc("GET /v1/upstreams/{ns}/schema", s.handleSchema)
	// Service-wide.
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Draining instances fail liveness so load balancers stop
		// routing to them while in-flight requests finish.
		if s.draining.Load() {
			httpError(w, http.StatusServiceUnavailable, ErrCodeDraining, errDraining)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleSchema republishes a namespace's upstream search schema (the same
// wire shape hiddendb serves), so service clients and load generators can
// build requests without a side channel to the upstream.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, schemaResponse(t.db.Schema(), t.db.K()))
}

func (s *Server) handleRerank(w http.ResponseWriter, r *http.Request) {
	var req RerankRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	// Validate before admitting: invalid requests must not compete with
	// real traffic for session slots or budget.
	q, rk, variant, err := buildRequest(t.db.Schema(), &req)
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	release, charge, ok := s.admit(w, r, t, 1)
	if !ok {
		return
	}
	defer release()
	// Counted here, not in the shared core: batch sub-items have their own
	// BatchItems counter and must not inflate the single-request rate.
	t.requests.Add(1)
	setEpochHeader(w, t)
	resp, issued, status, code, err := s.run(t, q, rk, variant, req.H)
	charge(issued)
	if err != nil {
		s.upstreamError(w, t, status, code, err)
		return
	}
	writeWire(w, http.StatusOK, resp)
}

// setEpochHeader stamps the namespace's current knowledge epoch onto a
// rerank-route response, so clients can watch for bumps without polling the
// upstreams API.
func setEpochHeader(w http.ResponseWriter, t *tenant) {
	w.Header().Set(KnowledgeEpochHeader, strconv.FormatInt(t.engine().Epoch(), 10))
}

// KnowledgeEpochHeader carries the namespace's knowledge epoch on every
// rerank-route response.
const KnowledgeEpochHeader = "X-Knowledge-Epoch"

// upstreamError writes a failed request's error envelope; a down upstream
// additionally advertises the guard's remaining backoff as Retry-After.
func (s *Server) upstreamError(w http.ResponseWriter, t *tenant, status int, code string, err error) {
	if code == ErrCodeUpstreamDown && t.guard != nil {
		if until := t.guard.Health().BackoffUntil; !until.IsZero() {
			httpErrorRetry(w, status, code, err, time.Until(until))
			return
		}
	}
	httpError(w, status, code, err)
}

// Rerank executes one reranking request against the default namespace. It is
// exported so in-process callers (tests, examples) can skip HTTP; it
// bypasses admission control and budgets, which live at the HTTP edge.
func (s *Server) Rerank(req RerankRequest) (*RerankResponse, int, error) {
	t, ok := s.tenantFor("")
	if !ok {
		return nil, http.StatusNotFound, unknownUpstreamErr("")
	}
	t.requests.Add(1)
	resp, _, status, _, err := s.rerank(t, req)
	return resp, status, err
}

// rerank validates and runs one request, reporting the upstream queries it
// cost even when it failed mid-search — the number the HTTP edge charges
// against the client's budget window.
func (s *Server) rerank(t *tenant, req RerankRequest) (_ *RerankResponse, issued int64, status int, code string, err error) {
	q, rk, variant, err := buildRequest(t.db.Schema(), &req)
	if err != nil {
		return nil, 0, http.StatusBadRequest, ErrCodeBadRequest, err
	}
	return s.run(t, q, rk, variant, req.H)
}

// run executes one compiled request in a fresh session on t's engine.
func (s *Server) run(t *tenant, q query.Query, rk ranking.Ranker, variant core.Variant, h int) (_ *RerankResponse, issued int64, status int, code string, err error) {
	// One session per request: its ledger is the request's upstream cost
	// (exact under concurrency, unlike a before/after diff of the engine
	// counter, which would absorb other requests' probes).
	eng := t.engine()
	sess := eng.NewSession()
	cur, err := sess.NewCursor(q, rk, variant)
	if err != nil {
		return nil, sess.Queries(), http.StatusBadRequest, ErrCodeBadRequest, err
	}
	tuples, err := core.TopH(cur, h)
	if err != nil {
		status, code := upstreamStatus(err)
		if code == ErrCodeUpstreamFailed {
			err = fmt.Errorf("upstream search failed: %w", err)
		}
		return nil, sess.Queries(), status, code, err
	}
	resp := &RerankResponse{
		Exhausted:     len(tuples) < h,
		QueriesIssued: sess.Queries(),
		EngineQueries: eng.Queries(),
		Epoch:         eng.Epoch(),
	}
	for _, tp := range tuples {
		var tj TupleJSON
		toJSONInto(t.db.Schema(), rk, tp, &tj)
		resp.Tuples = append(resp.Tuples, tj)
	}
	return resp, resp.QueriesIssued, http.StatusOK, "", nil
}

// buildRequest validates and compiles one wire request into its engine
// parts (query, ranker, algorithm variant), applying the default and
// maximum h. Shared by the single, batch and streaming endpoints.
func buildRequest(schema *types.Schema, req *RerankRequest) (query.Query, ranking.Ranker, core.Variant, error) {
	if req.H <= 0 {
		req.H = 10
	}
	if req.H > 10_000 {
		return query.Query{}, nil, 0, errors.New("h too large (max 10000)")
	}
	q, err := buildQuery(schema, *req)
	if err != nil {
		return query.Query{}, nil, 0, err
	}
	rk, err := buildRanker(schema, req.Ranking)
	if err != nil {
		return query.Query{}, nil, 0, err
	}
	variant, err := parseAlgorithm(req.Algorithm, len(rk.Attrs()))
	if err != nil {
		return query.Query{}, nil, 0, err
	}
	return q, rk, variant, nil
}

// toJSONInto fills dst from t, reusing dst's Ord map across calls. The stream
// encoder serializes each TupleJSON before the next fill, so one reused
// value covers an entire NDJSON response without per-tuple map allocation.
func toJSONInto(schema *types.Schema, rk ranking.Ranker, t types.Tuple, dst *TupleJSON) {
	dst.ID = t.ID
	dst.Score = ranking.ScoreTuple(rk, t)
	dst.Cat = t.Cat
	if dst.Ord == nil {
		dst.Ord = make(map[string]float64, len(schema.OrdinalIndexes()))
	} else {
		clear(dst.Ord)
	}
	for _, i := range schema.OrdinalIndexes() {
		dst.Ord[schema.Attr(i).Name] = t.Ord[i]
	}
}

// buildQuery compiles the request's ranges and filters. Ranges on one
// attribute intersect, and an empty result is an error whichever range made
// it so.
func buildQuery(schema *types.Schema, req RerankRequest) (query.Query, error) {
	q := query.New()
	for _, rs := range req.Ranges {
		idx := schema.Index(rs.Attr)
		if idx < 0 || schema.Attr(idx).Kind != types.Ordinal {
			return q, fmt.Errorf("unknown ordinal attribute %q", rs.Attr)
		}
		iv := types.FullInterval()
		if rs.Min != nil {
			iv.Lo, iv.LoOpen = *rs.Min, rs.MinOpen
		}
		if rs.Max != nil {
			iv.Hi, iv.HiOpen = *rs.Max, rs.MaxOpen
		}
		if q = q.WithRange(idx, iv); q.Empty() {
			return q, fmt.Errorf("empty range on %q", rs.Attr)
		}
	}
	for name, val := range req.Filters {
		idx := schema.Index(name)
		if idx < 0 || schema.Attr(idx).Kind != types.Categorical {
			return q, fmt.Errorf("unknown categorical attribute %q", name)
		}
		q = q.WithCat(name, val)
	}
	return q, nil
}

func buildRanker(schema *types.Schema, spec RankingSpec) (ranking.Ranker, error) {
	idx := make([]int, len(spec.Attrs))
	for i, name := range spec.Attrs {
		j := schema.Index(name)
		if j < 0 || schema.Attr(j).Kind != types.Ordinal {
			return nil, fmt.Errorf("unknown ordinal attribute %q in ranking", name)
		}
		idx[i] = j
	}
	switch spec.Kind {
	case "linear":
		rk, err := ranking.NewLinear("user-linear", idx, spec.Weights)
		if err != nil {
			return nil, err
		}
		// Finite weights can still overflow a score; a bound over the
		// schema's domains keeps every score of an in-domain tuple finite.
		bound := 0.0
		for i, j := range idx {
			d := schema.Domain(j)
			bound += math.Abs(spec.Weights[i]) * max(math.Abs(d.Min), math.Abs(d.Max))
		}
		if math.IsInf(bound, 0) || math.IsNaN(bound) {
			return nil, errors.New("linear weights overflow the score over the attribute domains")
		}
		return rk, nil
	case "single":
		if len(idx) != 1 {
			return nil, errors.New(`"single" ranking takes exactly one attribute`)
		}
		dir := ranking.Asc
		if spec.Desc {
			dir = ranking.Desc
		}
		return ranking.NewSingle("user-single", idx[0], dir), nil
	case "ratio":
		if len(idx) != 2 {
			return nil, errors.New(`"ratio" ranking takes exactly two attributes (num, den)`)
		}
		if schema.Domain(idx[1]).Min <= 0 {
			return nil, fmt.Errorf("ratio denominator %q must have a positive domain", spec.Attrs[1])
		}
		return ranking.NewRatio("user-ratio", idx[0], idx[1]), nil
	default:
		return nil, fmt.Errorf("unknown ranking kind %q (want linear, single, or ratio)", spec.Kind)
	}
}

func parseAlgorithm(s string, nAttrs int) (core.Variant, error) {
	switch s {
	case "", "rerank":
		return core.Rerank, nil
	case "baseline":
		return core.Baseline, nil
	case "binary":
		return core.Binary, nil
	case "ta":
		if nAttrs < 2 {
			return 0, errors.New(`algorithm "ta" requires a multi-attribute ranking`)
		}
		return core.TAOverOneD, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

// writeJSON writes v with encoding/json, for the routes off the serving
// path (schema, stats, registry); the serving routes use writeWire.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
