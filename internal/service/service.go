// Package service implements "query reranking as a service" over HTTP: the
// third-party deployment the paper's title promises. A Server fronts a
// registry of upstream namespaces — one isolated reranking engine per
// registered hidden database — and exposes the federated serving API:
//
//	GET    /v1/upstreams                          -> registered upstreams (name, url, fingerprint, schema, stats)
//	POST   /v1/upstreams                          {name, url} -> dial + register a new upstream namespace
//	GET    /v1/upstreams/{ns}                     -> one upstream's descriptor
//	DELETE /v1/upstreams/{ns}                     -> deregister (finalizes its persistence)
//	POST   /v1/upstreams/{ns}/rerank{,/batch,/stream}  -> namespace-scoped reranking
//	GET    /v1/upstreams/{ns}/stats               -> one namespace's counters
//	GET    /v1/upstreams/{ns}/schema              -> one namespace's upstream schema
//	GET    /v1/stats                              -> service-wide counters + per-upstream breakdown
//	GET    /metrics                               -> the same counters in Prometheus text format
//	GET    /healthz                               -> liveness (503 once draining)
//
// The pre-federation un-namespaced routes remain as deprecated aliases for
// the DEFAULT namespace (the first registered upstream): POST /v1/rerank
// {,/batch,/stream} and GET /v1/schema behave exactly as before on a
// single-upstream server, and their bodies accept an "upstream" field to
// address a namespace without the new paths. See docs/api.md.
//
// Isolation model: each namespace owns its history, dense indexes, probe
// cache, coalescer, query-cost ledger, and (with a data dir) its own
// segment store under data-dir/<ns>/. Admission capacity is the one shared
// resource — Core.MaxConcurrentSessions bounds in-flight sessions across
// all namespaces through a weighted registry gate (excess requests get 429
// + Retry-After; a batch of N weighs N, scaled by the namespace's
// admission weight). Options.ClientBudget meters upstream queries per
// client across namespaces, request bodies are size-capped, and BeginDrain
// stops admission for graceful shutdown. Every non-2xx response carries
// the {"error":{code,message,retryAfterSec}} envelope (see errors.go).
//
// Upstream databases can be in-process (a *hidden.DB) or remote — see
// remote.go for the adapter that speaks to any HTTP top-k search endpoint
// such as cmd/hiddendb.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acquire"
	"repro/internal/core"
	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// DefaultUpstream is the namespace name the single-upstream constructors
// register, and the implicit target of un-namespaced requests.
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

// RerankRequest is the /v1/rerank request body.
type RerankRequest struct {
	// Upstream addresses a registered namespace from the legacy
	// un-namespaced routes ("" = the default namespace). On the
	// namespace-scoped routes it must be empty or match the path.
	Upstream  string            `json:"upstream,omitempty"`
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

// RerankResponse is the /v1/rerank response body.
type RerankResponse struct {
	Tuples    []TupleJSON `json:"tuples"`
	Exhausted bool        `json:"exhausted"`
	// QueriesIssued is the number of upstream search queries this request
	// cost — the paper's performance measure, surfaced to clients. Probes
	// deduplicated by the engine's coalescing layer (answered by another
	// in-flight request or a recent complete answer) cost nothing and are
	// charged once, to the request that actually issued them.
	QueriesIssued int64 `json:"queriesIssued"`
	// EngineQueries is the namespace engine's lifetime upstream query count.
	EngineQueries int64 `json:"engineQueries"`
	// Epoch is the namespace's knowledge epoch the answer was computed
	// under (also sent as the X-Knowledge-Epoch response header).
	Epoch int64 `json:"epoch"`
}

// UpstreamStats is one namespace's slice of the service counters, served
// under /v1/stats (the Upstreams map), /v1/upstreams listings, and
// /v1/upstreams/{ns}/stats.
type UpstreamStats struct {
	// URL is the upstream's endpoint ("" for an in-process database).
	URL string `json:"url,omitempty"`
	// Default marks the namespace legacy un-namespaced requests hit.
	Default bool `json:"default,omitempty"`
	// AdmissionWeight is the per-session multiplier this namespace applies
	// to the shared admission capacity.
	AdmissionWeight int `json:"admissionWeight"`

	EngineQueries     int64  `json:"engineQueries"`
	HistoryTuples     int    `json:"historyTuples"`
	ProbeCacheEntries int    `json:"probeCacheEntries"`
	MDDenseRegions    int    `json:"mdDenseRegions"`
	DenseMDBuckets    int    `json:"denseMDBuckets"`
	DenseMDMaxBucket  int    `json:"denseMDMaxBucket"`
	SearchParallelism int    `json:"searchParallelism"`
	SpecProbesIssued  int64  `json:"specProbesIssued"`
	SpecProbesWasted  int64  `json:"specProbesWasted"`
	Requests          int64  `json:"requests"`
	BatchRequests     int64  `json:"batchRequests"`
	BatchItems        int64  `json:"batchItems"`
	StreamRequests    int64  `json:"streamRequests"`
	StreamTuples      int64  `json:"streamTuples"`
	UpstreamK         int    `json:"upstreamK"`
	UpstreamRanker    string `json:"upstreamRanker,omitempty"`

	StorageBlocks         int   `json:"storageBlocks"`
	StorageDictEntries    int   `json:"storageDictEntries"`
	StorageResidentTuples int   `json:"storageResidentTuples"`
	StorageApproxBytes    int64 `json:"storageApproxBytes"`
	// ProbeContainedHits counts probes answered free by filtering a held
	// complete answer whose box contains them, ProbePartialHits probes
	// answered free by replaying the overflow page the identical probe got
	// before (exact hits on complete answers are counted by neither);
	// ProbeFactBytes approximates what the ProbeCacheEntries held answers
	// occupy — queries and row references; their tuples are history rows.
	ProbeContainedHits int64 `json:"probeContainedHits"`
	ProbePartialHits   int64 `json:"probePartialHits"`
	ProbeFactBytes     int64 `json:"probeFactBytes"`
	// CertifiedComplete / CertifiedOverflow count 1D-RERANK's certification
	// probes (at most one per Get-Next, over (last, candidate]) by outcome:
	// a complete page answered the Get-Next outright, an overflowing one
	// only improved the candidate. Their ratio is the certification hit rate.
	CertifiedComplete int64 `json:"certifiedComplete"`
	CertifiedOverflow int64 `json:"certifiedOverflow"`
	// MDCertifiedComplete / MDCertifiedOverflow count MD-RERANK's deep
	// certification probes (at most one per region resolution, over the
	// contour of the D-th best known tuple) by the same outcomes. CoverHits
	// counts the Get-Nexts, 1D and MD, answered from a certified cover a
	// cursor kept: next tuple and tie group for no probe at all.
	MDCertifiedComplete int64 `json:"mdCertifiedComplete"`
	MDCertifiedOverflow int64 `json:"mdCertifiedOverflow"`
	CoverHits           int64 `json:"coverHits"`

	// Living-upstream state: the knowledge epoch, sentinel drift detection,
	// lazy re-validation and probe-guard counters (see docs/epochs.md).
	Epoch            int64  `json:"epoch"`
	EpochBumps       int64  `json:"epochBumps"`
	StaleRegions     int    `json:"staleRegions"`
	StaleHistoryRows int64  `json:"staleHistoryRows"`
	RevalPromoted    int64  `json:"revalPromoted"`
	RevalEvicted     int64  `json:"revalEvicted"`
	SentinelPasses   int64  `json:"sentinelPasses"`
	SentinelBumps    int64  `json:"sentinelBumps"`
	LastSentinelUnix int64  `json:"lastSentinelUnix,omitempty"`
	Health           string `json:"health"`
	ProbeRetries     int64  `json:"probeRetries"`
	ProbeHedges      int64  `json:"probeHedges"`
	ProbeHedgeWins   int64  `json:"probeHedgeWins"`
	ProbeFailures    int64  `json:"probeFailures"`
	ProbeFastFails   int64  `json:"probeFastFails"`

	// Acquire is the namespace's background-acquirer counters (absent when
	// acquisition is disabled).
	Acquire *acquire.Stats `json:"acquire,omitempty"`

	// Per-namespace persistence gauges (the namespace's own segment store
	// under data-dir/<ns>/).
	PersistEnabled        bool   `json:"persistEnabled"`
	PersistSeq            int64  `json:"persistSeq,omitempty"`
	PersistCheckpoints    int64  `json:"persistCheckpoints,omitempty"`
	PersistCompactions    int64  `json:"persistCompactions,omitempty"`
	PersistJournalRecords int    `json:"persistJournalRecords,omitempty"`
	PersistSegmentFiles   int    `json:"persistSegmentFiles,omitempty"`
	PersistPendingOps     int    `json:"persistPendingOps,omitempty"`
	PersistReplayedDeltas int    `json:"persistReplayedDeltas,omitempty"`
	PersistBytesAppended  int64  `json:"persistBytesAppended,omitempty"`
	PersistLastError      string `json:"persistLastError,omitempty"`
}

// Stats is the /v1/stats response body: the service-wide counters, with the
// engine-level fields summed across namespaces, plus the per-namespace
// breakdown in Upstreams. On a single-upstream server the flat fields read
// exactly as they did before federation.
type Stats struct {
	EngineQueries int64 `json:"engineQueries"`
	HistoryTuples int   `json:"historyTuples"`
	// ProbeCacheEntries is the number of probe answers the coalescing
	// layers currently hold as facts over the history arena (persisted
	// across restarts by the data dir). Each answers its own probe for zero
	// upstream cost, and a complete one every probe its box contains;
	// ProbeContainedHits counts the latter kind of hit, ProbePartialHits
	// replays of an overflow page for the identical probe, ProbeFactBytes
	// approximates the facts' footprint.
	ProbeCacheEntries  int   `json:"probeCacheEntries"`
	ProbeContainedHits int64 `json:"probeContainedHits"`
	ProbePartialHits   int64 `json:"probePartialHits"`
	ProbeFactBytes     int64 `json:"probeFactBytes"`
	// CertifiedComplete / CertifiedOverflow sum 1D-RERANK's certification
	// probes by outcome across namespaces, MDCertified* MD-RERANK's, and
	// CoverHits the Get-Nexts answered from a cursor's certified cover (see
	// UpstreamStats).
	CertifiedComplete   int64 `json:"certifiedComplete"`
	CertifiedOverflow   int64 `json:"certifiedOverflow"`
	MDCertifiedComplete int64 `json:"mdCertifiedComplete"`
	MDCertifiedOverflow int64 `json:"mdCertifiedOverflow"`
	CoverHits           int64 `json:"coverHits"`
	// MDDenseRegions is the number of crawled MD dense regions across all
	// ranked-attribute subsets — the boxes MD-RERANK answers locally for
	// zero upstream cost (persisted across restarts by the data dir).
	MDDenseRegions int `json:"mdDenseRegions"`
	// DenseMDBuckets / DenseMDMaxBucket describe the MD dense indexes'
	// centroid-grid shape: occupied grid cells and the largest cell
	// population. MaxBucket staying small as MDDenseRegions grows is the
	// sub-linear-lookup property holding in production.
	DenseMDBuckets   int `json:"denseMDBuckets"`
	DenseMDMaxBucket int `json:"denseMDMaxBucket"`
	// SearchParallelism is the default namespace's effective speculative
	// probe width W; SpecProbesIssued / SpecProbesWasted sum speculative
	// probes issued and wasted across namespaces.
	SearchParallelism int   `json:"searchParallelism"`
	SpecProbesIssued  int64 `json:"specProbesIssued"`
	SpecProbesWasted  int64 `json:"specProbesWasted"`
	// Requests counts single rerank requests; BatchRequests and
	// StreamRequests count the batch/stream endpoints (BatchItems is the
	// total of sub-requests inside batches, StreamTuples the total NDJSON
	// tuple lines emitted). All summed across namespaces.
	Requests       int64 `json:"requests"`
	BatchRequests  int64 `json:"batchRequests"`
	BatchItems     int64 `json:"batchItems"`
	StreamRequests int64 `json:"streamRequests"`
	StreamTuples   int64 `json:"streamTuples"`
	// SessionsInFlight / MaxSessions describe the shared admission gate:
	// currently-admitted session weight and the configured bound
	// (0 = unlimited). Rejected* count requests shed at the edge, by
	// cause: capacity, per-client budget, draining shutdown.
	SessionsInFlight int   `json:"sessionsInFlight"`
	MaxSessions      int   `json:"maxSessions"`
	RejectedCapacity int64 `json:"rejectedCapacity"`
	RejectedBudget   int64 `json:"rejectedBudget"`
	RejectedDraining int64 `json:"rejectedDraining"`
	// Draining is true once BeginDrain was called (shutdown in progress).
	Draining bool `json:"draining"`
	// UpstreamK / UpstreamRanker describe the default namespace's upstream
	// interface.
	UpstreamK      int    `json:"upstreamK"`
	UpstreamRanker string `json:"upstreamRanker,omitempty"`
	// Columnar storage gauges, summed across namespaces (see
	// internal/colstore and docs/storage.md).
	StorageBlocks         int   `json:"storageBlocks"`
	StorageDictEntries    int   `json:"storageDictEntries"`
	StorageResidentTuples int   `json:"storageResidentTuples"`
	StorageApproxBytes    int64 `json:"storageApproxBytes"`
	// Segment/journal persistence gauges, summed across namespaces
	// (zero-valued unless a data dir is open; see docs/persistence.md).
	// PersistLastError is the first failing namespace's most recent
	// checkpoint error ("" when all healthy).
	PersistEnabled        bool   `json:"persistEnabled"`
	PersistSeq            int64  `json:"persistSeq,omitempty"`
	PersistCheckpoints    int64  `json:"persistCheckpoints,omitempty"`
	PersistCompactions    int64  `json:"persistCompactions,omitempty"`
	PersistJournalRecords int    `json:"persistJournalRecords,omitempty"`
	PersistSegmentFiles   int    `json:"persistSegmentFiles,omitempty"`
	PersistPendingOps     int    `json:"persistPendingOps,omitempty"`
	PersistReplayedDeltas int    `json:"persistReplayedDeltas,omitempty"`
	PersistBytesAppended  int64  `json:"persistBytesAppended,omitempty"`
	PersistLastError      string `json:"persistLastError,omitempty"`
	// Living-upstream aggregates: epoch bumps, stale-knowledge gauges,
	// lazy re-validation outcomes, sentinel passes and probe-guard counters
	// summed across namespaces. Epoch is the DEFAULT namespace's knowledge
	// epoch (epochs are per-namespace; see the Upstreams breakdown).
	Epoch          int64 `json:"epoch"`
	EpochBumps     int64 `json:"epochBumps"`
	StaleRegions   int   `json:"staleRegions"`
	RevalPromoted  int64 `json:"revalPromoted"`
	RevalEvicted   int64 `json:"revalEvicted"`
	SentinelPasses int64 `json:"sentinelPasses"`
	SentinelBumps  int64 `json:"sentinelBumps"`
	ProbeRetries   int64 `json:"probeRetries"`
	ProbeHedges    int64 `json:"probeHedges"`
	ProbeFailures  int64 `json:"probeFailures"`
	ProbeFastFails int64 `json:"probeFastFails"`
	// AcquireEnabled is true when background acquisition is configured;
	// Acquire sums the per-namespace acquirer counters (absent when
	// disabled).
	AcquireEnabled bool           `json:"acquireEnabled"`
	Acquire        *acquire.Stats `json:"acquire,omitempty"`
	// DefaultUpstream names the namespace un-namespaced requests hit;
	// Upstreams is the per-namespace breakdown.
	DefaultUpstream string                   `json:"defaultUpstream,omitempty"`
	Upstreams       map[string]UpstreamStats `json:"upstreams,omitempty"`
}

// tenant is one registered namespace's serving-tier state: the namespace
// (isolated engine), its database handle, and the per-namespace HTTP
// counters.
type tenant struct {
	ns  *core.Namespace
	db  hidden.Database
	url string // upstream endpoint; "" for in-process databases

	requests       atomic.Int64
	batchRequests  atomic.Int64
	batchItems     atomic.Int64
	streamRequests atomic.Int64
	streamTuples   atomic.Int64

	// lastUser is the unix-nano timestamp of the namespace's most recent
	// user request execution — the acquirer's idle gate.
	lastUser atomic.Int64
	// acq is the namespace's background acquirer (nil unless
	// Options.Acquire.Enabled).
	acq *acquire.Acquirer
	// guard is the probe guard wrapped around a remote upstream (nil for
	// in-process databases, which always report healthy).
	guard *hidden.Guard
	// sent is the namespace's running sentinel loop (nil unless
	// Options.Sentinel.Enabled).
	sent *sentinelLoop
}

func (t *tenant) engine() *core.Engine { return t.ns.Engine() }

// Server is the reranking service: a registry of upstream namespaces behind
// one HTTP surface. Requests are handled concurrently; each namespace's
// shared knowledge is internally synchronized and each request runs in its
// own engine session. The only server-level lock serializes the persistence
// lifecycle (OpenDataDir against registrations); checkpoints are safe to
// take while requests are in flight.
type Server struct {
	registry *core.Registry
	opts     Options

	tmu     sync.RWMutex
	tenants map[string]*tenant

	// Admission/shedding state (see admission.go). Shared across
	// namespaces: sessions compete for process resources no matter which
	// upstream they probe.
	draining         atomic.Bool
	rejectedCapacity atomic.Int64
	rejectedBudget   atomic.Int64
	rejectedDraining atomic.Int64
	budgets          *budgetLedger // nil when ClientBudget is unset

	// persistMu guards dataDir/persistCfg and serializes OpenDataDir with a
	// concurrent registration's attach. dataDir, once set by OpenDataDir,
	// makes every namespace (including later registrations) persist under
	// dataDir/<ns>/.
	persistMu  sync.Mutex
	dataDir    string
	persistCfg PersistConfig
}

// NewFederatedServer builds a service with no upstreams registered yet; add
// them with RegisterUpstream / RegisterUpstreamDB (the first becomes the
// default namespace). opts.Core seeds every namespace's engine options;
// opts.Core.MaxConcurrentSessions is the SHARED admission bound across all
// namespaces.
func NewFederatedServer(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		registry: core.NewRegistry(core.RegistryOptions{
			MaxConcurrentSessions: opts.Core.MaxConcurrentSessions,
		}),
		opts:    opts,
		tenants: make(map[string]*tenant),
		budgets: newBudgetLedger(opts.ClientBudget, opts.ClientBudgetWindow, nil),
	}
}

// NewServer builds a single-upstream service over the given database,
// registered as the default namespace. n is the (estimated) upstream size
// used for dense-index thresholds.
func NewServer(db hidden.Database, n int) *Server {
	return NewServerWith(db, core.Options{N: n})
}

// NewServerWith builds a single-upstream service with explicit engine
// options (opts.N is the upstream size estimate; coalescing, cache sizing
// and the session admission bound are also set here) and default serving
// options.
func NewServerWith(db hidden.Database, opts core.Options) *Server {
	return NewServerWithOptions(db, Options{Core: opts})
}

// NewServerWithOptions builds a single-upstream service with full
// serving-tier options; db is registered as the default namespace.
func NewServerWithOptions(db hidden.Database, opts Options) *Server {
	s := NewFederatedServer(opts)
	if _, err := s.RegisterUpstreamDB(UpstreamConfig{Name: DefaultUpstream}, db); err != nil {
		// Unreachable: the name is valid and the registry is empty.
		panic(fmt.Sprintf("service: register default upstream: %v", err))
	}
	return s
}

// Registry exposes the server's namespace registry.
func (s *Server) Registry() *core.Registry { return s.registry }

// Engine exposes the DEFAULT namespace's engine (single-upstream tests and
// tools; nil when no upstream is registered).
func (s *Server) Engine() *core.Engine {
	if t, ok := s.tenantFor(""); ok {
		return t.engine()
	}
	return nil
}

// SessionsInFlight reports the admitted session weight currently in flight
// across all namespaces.
func (s *Server) SessionsInFlight() int { return s.registry.SessionsInFlight() }

// SessionCapacity returns the shared MaxConcurrentSessions bound
// (0 = unlimited).
func (s *Server) SessionCapacity() int { return s.registry.SessionCapacity() }

// tenantFor resolves a namespace name to its tenant; the empty name
// resolves to the default namespace.
func (s *Server) tenantFor(name string) (*tenant, bool) {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	if name == "" {
		ns := s.registry.Default()
		if ns == nil {
			return nil, false
		}
		name = ns.Name()
	}
	t, ok := s.tenants[name]
	return t, ok
}

// tenantList snapshots the registered tenants in namespace order.
func (s *Server) tenantList() []*tenant {
	nss := s.registry.List()
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	out := make([]*tenant, 0, len(nss))
	for _, ns := range nss {
		if t, ok := s.tenants[ns.Name()]; ok {
			out = append(out, t)
		}
	}
	return out
}

// resolveTenant picks the namespace a request addresses: the {ns} path
// wildcard when present, else the body's upstream field, else the default.
// A path/body mismatch is a 400; an unknown namespace is a 404. The error
// envelope is already written when ok is false.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request, bodyUpstream string) (*tenant, bool) {
	name := r.PathValue("ns")
	if name != "" && bodyUpstream != "" && name != bodyUpstream {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("path namespace %q conflicts with body upstream %q", name, bodyUpstream))
		return nil, false
	}
	if name == "" {
		name = bodyUpstream
	}
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
	// Deprecated un-namespaced aliases for the default namespace (bodies
	// may carry an "upstream" field; /v1/schema takes ?upstream=).
	mux.HandleFunc("POST /v1/rerank", s.handleRerank)
	mux.HandleFunc("POST /v1/rerank/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/rerank/stream", s.handleStream)
	mux.HandleFunc("GET /v1/schema", s.handleSchema)
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
// build requests without a side channel to the upstream. An unknown
// namespace — path wildcard or ?upstream= — is a 404, never silently the
// default's schema.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("ns")
	if name == "" {
		name = r.URL.Query().Get("upstream")
	}
	t, ok := s.tenantFor(name)
	if !ok {
		httpError(w, http.StatusNotFound, ErrCodeUnknownUpstream, unknownUpstreamErr(name))
		return
	}
	writeJSON(w, http.StatusOK, schemaResponse(t.db.Schema(), t.db.K()))
}

// decodeBody decodes a size-capped JSON request body. The error is already
// written to w when ok is false (413 for oversized bodies, 400 otherwise).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// tenantStats snapshots one namespace's counters.
func (s *Server) tenantStats(t *tenant) UpstreamStats {
	eng := t.engine()
	gs := eng.MDBucketStats()
	specIssued, specWasted := eng.SpeculationStats()
	us := UpstreamStats{
		URL:               t.url,
		Default:           s.registry.Default() == t.ns,
		AdmissionWeight:   t.ns.AdmissionWeight(),
		EngineQueries:     eng.Queries(),
		HistoryTuples:     eng.History().Size(),
		ProbeCacheEntries: eng.ProbeCacheEntries(),
		MDDenseRegions:    eng.MDDenseRegions(),
		DenseMDBuckets:    gs.Buckets,
		DenseMDMaxBucket:  gs.MaxBucket,
		SearchParallelism: eng.SearchParallelism(),
		SpecProbesIssued:  specIssued,
		SpecProbesWasted:  specWasted,
		Requests:          t.requests.Load(),
		BatchRequests:     t.batchRequests.Load(),
		BatchItems:        t.batchItems.Load(),
		StreamRequests:    t.streamRequests.Load(),
		StreamTuples:      t.streamTuples.Load(),
		UpstreamK:         t.db.K(),
	}
	us.Epoch = eng.Epoch()
	us.EpochBumps = eng.Knowledge().EpochBumps()
	us.StaleRegions = eng.Knowledge().StaleRegions()
	us.StaleHistoryRows = eng.Knowledge().StaleHistoryRows()
	us.RevalPromoted, us.RevalEvicted = eng.RevalidationStats()
	us.SentinelPasses, us.SentinelBumps, us.LastSentinelUnix = eng.SentinelStats()
	us.Health = hidden.HealthHealthy.String()
	if t.guard != nil {
		gh := t.guard.Health()
		us.Health = gh.State.String()
		us.ProbeRetries = gh.Retries
		us.ProbeHedges = gh.Hedges
		us.ProbeHedgeWins = gh.HedgeWins
		us.ProbeFailures = gh.Failures
		us.ProbeFastFails = gh.FastFails
	}
	ss := eng.StorageStats()
	us.StorageBlocks = ss.Blocks
	us.StorageDictEntries = ss.DictEntries
	us.StorageResidentTuples = ss.Tuples
	us.ProbeContainedHits = eng.ProbeContainedHits()
	us.ProbePartialHits = eng.ProbePartialHits()
	us.CertifiedComplete, us.CertifiedOverflow = eng.CertificationStats()
	us.MDCertifiedComplete, us.MDCertifiedOverflow = eng.MDCertificationStats()
	us.CoverHits = eng.CoverHits()
	us.ProbeFactBytes = eng.ProbeCacheBytes()
	us.StorageApproxBytes = ss.ApproxBytes + us.ProbeFactBytes
	if hdb, ok := t.db.(*hidden.DB); ok {
		us.UpstreamRanker = hdb.RankerName()
	}
	if t.acq != nil {
		as := t.acq.Stats()
		us.Acquire = &as
	}
	if p := eng.Persister(); p != nil {
		ps := p.Stats()
		us.PersistEnabled = true
		us.PersistSeq = int64(ps.Store.Seq)
		us.PersistCheckpoints = ps.Store.Checkpoints
		us.PersistCompactions = ps.Store.Compactions
		us.PersistJournalRecords = ps.Store.JournalRecords
		us.PersistSegmentFiles = ps.Store.SegmentFiles
		us.PersistPendingOps = ps.PendingOps
		us.PersistReplayedDeltas = ps.Store.ReplayedDeltas
		us.PersistBytesAppended = ps.Store.BytesAppended
		us.PersistLastError = ps.LastError
	}
	return us
}

// Stats reports the service's current counters (also served at /v1/stats):
// engine-level fields summed across namespaces plus the per-namespace
// breakdown.
func (s *Server) Stats() Stats {
	st := Stats{
		SessionsInFlight: s.registry.SessionsInFlight(),
		MaxSessions:      s.registry.SessionCapacity(),
		RejectedCapacity: s.rejectedCapacity.Load(),
		RejectedBudget:   s.rejectedBudget.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
		Draining:         s.draining.Load(),
		AcquireEnabled:   s.opts.Acquire.Enabled,
		Upstreams:        make(map[string]UpstreamStats),
	}
	if def := s.registry.Default(); def != nil {
		st.DefaultUpstream = def.Name()
	}
	for _, t := range s.tenantList() {
		us := s.tenantStats(t)
		st.Upstreams[t.ns.Name()] = us

		st.EngineQueries += us.EngineQueries
		st.HistoryTuples += us.HistoryTuples
		st.ProbeCacheEntries += us.ProbeCacheEntries
		st.ProbeContainedHits += us.ProbeContainedHits
		st.ProbePartialHits += us.ProbePartialHits
		st.CertifiedComplete += us.CertifiedComplete
		st.CertifiedOverflow += us.CertifiedOverflow
		st.MDCertifiedComplete += us.MDCertifiedComplete
		st.MDCertifiedOverflow += us.MDCertifiedOverflow
		st.CoverHits += us.CoverHits
		st.ProbeFactBytes += us.ProbeFactBytes
		st.MDDenseRegions += us.MDDenseRegions
		st.DenseMDBuckets += us.DenseMDBuckets
		if us.DenseMDMaxBucket > st.DenseMDMaxBucket {
			st.DenseMDMaxBucket = us.DenseMDMaxBucket
		}
		st.SpecProbesIssued += us.SpecProbesIssued
		st.SpecProbesWasted += us.SpecProbesWasted
		st.Requests += us.Requests
		st.BatchRequests += us.BatchRequests
		st.BatchItems += us.BatchItems
		st.StreamRequests += us.StreamRequests
		st.StreamTuples += us.StreamTuples
		st.EpochBumps += us.EpochBumps
		st.StaleRegions += us.StaleRegions
		st.RevalPromoted += us.RevalPromoted
		st.RevalEvicted += us.RevalEvicted
		st.SentinelPasses += us.SentinelPasses
		st.SentinelBumps += us.SentinelBumps
		st.ProbeRetries += us.ProbeRetries
		st.ProbeHedges += us.ProbeHedges
		st.ProbeFailures += us.ProbeFailures
		st.ProbeFastFails += us.ProbeFastFails
		st.StorageBlocks += us.StorageBlocks
		st.StorageDictEntries += us.StorageDictEntries
		st.StorageResidentTuples += us.StorageResidentTuples
		st.StorageApproxBytes += us.StorageApproxBytes
		if us.PersistEnabled {
			st.PersistEnabled = true
			st.PersistSeq += us.PersistSeq
			st.PersistCheckpoints += us.PersistCheckpoints
			st.PersistCompactions += us.PersistCompactions
			st.PersistJournalRecords += us.PersistJournalRecords
			st.PersistSegmentFiles += us.PersistSegmentFiles
			st.PersistPendingOps += us.PersistPendingOps
			st.PersistReplayedDeltas += us.PersistReplayedDeltas
			st.PersistBytesAppended += us.PersistBytesAppended
			if st.PersistLastError == "" {
				st.PersistLastError = us.PersistLastError
			}
		}
		if us.Acquire != nil {
			if st.Acquire == nil {
				st.Acquire = &acquire.Stats{}
			}
			st.Acquire.Ticks += us.Acquire.Ticks
			st.Acquire.ProbesIssued += us.Acquire.ProbesIssued
			st.Acquire.WindowsAcquired += us.Acquire.WindowsAcquired
			st.Acquire.SkippedWarm += us.Acquire.SkippedWarm
			st.Acquire.Yields += us.Acquire.Yields
			st.Acquire.AdmissionDenied += us.Acquire.AdmissionDenied
			st.Acquire.Errors += us.Acquire.Errors
		}
		if us.Default {
			st.SearchParallelism = us.SearchParallelism
			st.UpstreamK = us.UpstreamK
			st.UpstreamRanker = us.UpstreamRanker
			st.Epoch = us.Epoch
		}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleUpstreamStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolveTenant(w, r, "")
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.tenantStats(t))
}

func (s *Server) handleRerank(w http.ResponseWriter, r *http.Request) {
	var req RerankRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, ok := s.resolveTenant(w, r, req.Upstream)
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
	writeJSON(w, http.StatusOK, resp)
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

// Rerank executes one reranking request against the namespace its Upstream
// field addresses ("" = default). It is exported so in-process callers
// (tests, examples) can skip HTTP; it bypasses admission control and
// budgets, which live at the HTTP edge.
func (s *Server) Rerank(req RerankRequest) (*RerankResponse, int, error) {
	t, ok := s.tenantFor(req.Upstream)
	if !ok {
		return nil, http.StatusNotFound, unknownUpstreamErr(req.Upstream)
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
	// Every executed user request stamps the acquirer's idle clock and
	// feeds the heat sketch — both are single atomic-order operations, so
	// the request path pays nothing measurable.
	t.touchUser()
	eng.RecordHeat(q)
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
		resp.Tuples = append(resp.Tuples, toJSON(t.db.Schema(), rk, tp))
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

func toJSON(schema *types.Schema, rk ranking.Ranker, t types.Tuple) TupleJSON {
	var out TupleJSON
	toJSONInto(schema, rk, t, &out)
	return out
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
		if iv.Empty() {
			return q, fmt.Errorf("empty range on %q", rs.Attr)
		}
		q = q.WithRange(idx, iv)
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
		return ranking.NewLinear("user-linear", idx, spec.Weights)
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
