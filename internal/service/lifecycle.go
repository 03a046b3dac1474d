// The server and its namespaces: construction, the tenant each registered
// namespace is served through, and resolving a namespace by name.

package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hidden"
)

// tenant is one registered namespace's serving-tier state: its name, its
// admission weight, its isolated engine, its database handle, and the
// per-namespace HTTP counters.
type tenant struct {
	name string
	// weight scales what one session against this namespace draws from the
	// server's shared admission gate (at least 1).
	weight int
	eng    *core.Engine
	db     hidden.Database
	url    string // upstream endpoint; "" for in-process databases

	requests       atomic.Int64
	batchRequests  atomic.Int64
	batchItems     atomic.Int64
	streamRequests atomic.Int64
	streamTuples   atomic.Int64

	// guard is the probe guard wrapped around a remote upstream (nil for
	// in-process databases, which always report healthy).
	guard *hidden.Guard
	// sent is the namespace's running sentinel loop (nil unless
	// Options.SentinelInterval > 0).
	sent *sentinelLoop
}

func (t *tenant) engine() *core.Engine { return t.eng }

// Server is the reranking service: a table of upstream namespaces behind
// one HTTP surface. Requests are handled concurrently; each namespace's
// shared knowledge is internally synchronized and each request runs in its
// own engine session. tmu guards the namespace table; persistMu serializes
// the persistence lifecycle (OpenDataDir against registrations);
// checkpoints are safe to take while requests are in flight.
type Server struct {
	opts Options

	tmu     sync.RWMutex
	tenants map[string]*tenant
	defName string // the default namespace: the first registered

	// Admission/shedding state (see admission.go). Shared across
	// namespaces: sessions compete for process resources no matter which
	// upstream they probe.
	gate             *admissionGate
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
// opts.MaxSessions is the admission bound shared by all namespaces.
func NewFederatedServer(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:    opts,
		tenants: make(map[string]*tenant),
		gate:    newAdmissionGate(opts.MaxSessions),
		budgets: newBudgetLedger(opts.ClientBudget, opts.ClientBudgetWindow, nil),
	}
}

// NewServer builds a single-upstream service over the given database,
// registered as the default namespace. n is the (estimated) upstream size
// used for dense-index thresholds.
func NewServer(db hidden.Database, n int) *Server {
	return NewServerWithOptions(db, Options{Core: core.Options{N: n}})
}

// NewServerWithOptions builds a single-upstream service with full
// serving-tier options; db is registered as the default namespace.
func NewServerWithOptions(db hidden.Database, opts Options) *Server {
	s := NewFederatedServer(opts)
	if _, err := s.RegisterUpstreamDB(UpstreamConfig{Name: DefaultUpstream}, db); err != nil {
		// Unreachable: the name is valid and the table is empty.
		panic(fmt.Sprintf("service: register default upstream: %v", err))
	}
	return s
}

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
func (s *Server) SessionsInFlight() int { return s.gate.inFlight() }

// tenantFor resolves a namespace name to its tenant; the empty name
// resolves to the default namespace.
func (s *Server) tenantFor(name string) (*tenant, bool) {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	if name == "" {
		name = s.defName
	}
	t, ok := s.tenants[name]
	return t, ok
}

// defaultName returns the default namespace's name ("" while none is
// registered).
func (s *Server) defaultName() string {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	return s.defName
}

// tenantList snapshots the registered tenants in namespace order.
func (s *Server) tenantList() []*tenant {
	s.tmu.RLock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.tmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
