// The server and its namespaces: construction, the tenant each registered
// namespace is served through, and resolving a namespace by name.

package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/acquire"
	"repro/internal/core"
	"repro/internal/hidden"
)

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
	return NewServerWithOptions(db, Options{Core: core.Options{N: n}})
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
