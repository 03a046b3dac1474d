// The upstream registry API: programmatic registration of upstream
// namespaces and the /v1/upstreams HTTP surface.
//
//	GET    /v1/upstreams                   list registered upstreams (rich objects)
//	POST   /v1/upstreams                   dial {url} and register it as namespace {name}
//	GET    /v1/upstreams/{ns}              one upstream's descriptor
//	POST   /v1/upstreams/{ns}/revalidate   immediate sentinel pass (drift check now)
//	DELETE /v1/upstreams/{ns}              deregister (finalizes the namespace's persistence)
//
// Each descriptor carries the namespace name, upstream URL, the engine's
// persistence fingerprint (schema + k + system ranker — the identity that
// guards data-dir reuse), the upstream schema, the namespace's slice of the
// service counters, and the living-upstream state: knowledge epoch, probe
// guard health, last sentinel pass, and the count of stale regions awaiting
// lazy re-validation.
//
// Remote upstreams registered here are wrapped in a hidden.Guard (retries
// with backoff, half-open health state machine); in-process databases
// are never wrapped and always report "healthy".
//
// Namespace names are safe path components ([a-z0-9][a-z0-9._-]*, at most
// 64 bytes) because each namespace's data directory is data-dir/<name>/;
// see docs/persistence.md.

package service

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/hidden"
	"repro/internal/segment"
)

// Namespace table errors, answered as 409/404 by the registry routes.
var (
	errUpstreamExists  = errors.New("service: namespace already registered")
	errUnknownUpstream = errors.New("service: unknown namespace")
	// The default namespace may only be removed last.
	errDefaultUpstream = errors.New("service: cannot deregister the default namespace while others remain")
)

// MaxNamespaceNameLen bounds namespace name length.
const MaxNamespaceNameLen = 64

// ValidateNamespaceName checks that name is usable as a namespace key: a
// non-empty lowercase identifier ([a-z0-9][a-z0-9._-]*, at most
// MaxNamespaceNameLen bytes) that is safe to use as a single path component
// of a data directory.
func ValidateNamespaceName(name string) error {
	if name == "" {
		return errors.New("service: empty namespace name")
	}
	if len(name) > MaxNamespaceNameLen {
		return fmt.Errorf("service: namespace name longer than %d bytes", MaxNamespaceNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
			(i > 0 && (c == '.' || c == '_' || c == '-'))
		if !ok {
			return fmt.Errorf("service: invalid namespace name %q (want [a-z0-9][a-z0-9._-]*)", name)
		}
	}
	return nil
}

// UpstreamConfig describes one upstream to register: the POST /v1/upstreams
// body and the argument of the programmatic registration calls.
type UpstreamConfig struct {
	// Name is the namespace name ([a-z0-9][a-z0-9._-]*, ≤64 bytes);
	// defaults to DefaultUpstream when empty.
	Name string `json:"name"`
	// URL is the upstream hiddendb endpoint to dial (required over HTTP;
	// ignored by RegisterUpstreamDB, which brings its own database).
	URL string `json:"url,omitempty"`
	// N overrides the server-wide Core.N size estimate for this
	// namespace's dense-index thresholds (0 = inherit).
	N int `json:"n,omitempty"`
	// AdmissionWeight scales what one session against this namespace
	// draws from the shared admission capacity (default 1).
	AdmissionWeight int `json:"admissionWeight,omitempty"`
}

// UpstreamInfo is one registered upstream's descriptor.
type UpstreamInfo struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"`
	// Default marks the default namespace (the first registered).
	Default         bool `json:"default,omitempty"`
	AdmissionWeight int  `json:"admissionWeight"`
	// Fingerprint is the namespace's persistence identity (schema, k,
	// system ranker); a data dir recorded under a different fingerprint is
	// quarantined rather than replayed.
	Fingerprint segment.Fingerprint `json:"fingerprint"`
	Schema      SchemaResponse      `json:"schema"`
	Stats       UpstreamStats       `json:"stats"`

	// Epoch is the namespace's current knowledge epoch: every piece of
	// acquired knowledge carries the epoch it was learned under, and
	// knowledge from older epochs is re-validated lazily on first touch.
	Epoch int64 `json:"epoch"`
	// Health is the probe guard's view of the upstream: "healthy",
	// "degraded", or "down". In-process namespaces are always "healthy".
	Health string `json:"health"`
	// LastSentinelUnix is the unix time of the last completed sentinel
	// pass (0 = none yet).
	LastSentinelUnix int64 `json:"lastSentinelUnix"`
	// BackoffUntilUnix is when a down upstream's backoff window expires
	// (0 unless down).
	BackoffUntilUnix int64 `json:"backoffUntilUnix,omitempty"`
	// StaleRegions counts dense regions acquired under an older epoch and
	// not yet re-validated.
	StaleRegions int `json:"staleRegions"`
}

// UpstreamsResponse is the GET /v1/upstreams body.
type UpstreamsResponse struct {
	// Default names the default namespace.
	Default   string         `json:"default,omitempty"`
	Upstreams []UpstreamInfo `json:"upstreams"`
}

// RevalidateResponse is the POST /v1/upstreams/{ns}/revalidate body: the
// outcome of the immediate sentinel pass it triggered.
type RevalidateResponse struct {
	// Epoch is the namespace's knowledge epoch after the pass.
	Epoch int64 `json:"epoch"`
	// Bumped reports whether the pass detected drift and bumped the epoch.
	Bumped bool `json:"bumped"`
	// Queries is the upstream cost of the pass (charged to the engine
	// ledger, like every logical probe).
	Queries int64 `json:"queries"`
	// StaleRegions counts dense regions now awaiting lazy re-validation.
	StaleRegions int `json:"staleRegions"`
}

// RegisterUpstreamDB registers a namespace over an in-process database
// handle. The first registered namespace becomes the default. If a data dir
// is open, the namespace immediately gets its own segment store under
// data-dir/<name>/.
func (s *Server) RegisterUpstreamDB(cfg UpstreamConfig, db hidden.Database) (*UpstreamInfo, error) {
	if cfg.Name == "" {
		cfg.Name = DefaultUpstream
	}
	if err := ValidateNamespaceName(cfg.Name); err != nil {
		return nil, err
	}
	engOpts := s.opts.Core
	if cfg.N > 0 {
		engOpts.N = cfg.N
	}
	t := &tenant{name: cfg.Name, weight: max(cfg.AdmissionWeight, 1), db: db, url: cfg.URL}
	if g, ok := db.(*hidden.Guard); ok {
		t.guard = g
	}
	s.tmu.Lock()
	if _, dup := s.tenants[cfg.Name]; dup {
		s.tmu.Unlock()
		return nil, fmt.Errorf("%w: %q", errUpstreamExists, cfg.Name)
	}
	t.eng = core.NewEngine(db, engOpts)
	if len(s.tenants) == 0 {
		s.defName = cfg.Name
	}
	s.tenants[cfg.Name] = t
	s.tmu.Unlock()

	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.dataDir != "" {
		if err := s.attachTenant(t); err != nil {
			// Roll the registration back: a namespace that cannot open its
			// store must not serve with persistence silently disabled.
			s.tmu.Lock()
			s.remove(cfg.Name)
			s.tmu.Unlock()
			return nil, err
		}
	}
	// The acquirer starts after any persistence replay so a restored heat
	// sketch immediately seeds its candidate ranking. Nothing to start on a
	// draining server: BeginDrain has already stopped acquisition for good.
	if s.opts.Acquire.Enabled && !s.draining.Load() {
		s.startAcquirer(t)
	}
	// The sentinel also starts post-replay: its first pass baselines the
	// upstream's current answers, so restored knowledge that predates a
	// corpus change is caught by the second pass at the latest.
	if s.opts.SentinelInterval > 0 && !s.draining.Load() {
		s.startSentinel(t)
	}
	info := s.upstreamInfo(t)
	return &info, nil
}

// RegisterUpstream dials a remote hiddendb endpoint and registers it as a
// namespace (the programmatic form of POST /v1/upstreams). The remote is
// wrapped in a probe guard — retries with backoff, half-open health.
func (s *Server) RegisterUpstream(cfg UpstreamConfig) (*UpstreamInfo, error) {
	if cfg.URL == "" {
		return nil, errors.New("service: upstream url required")
	}
	rdb, err := DialRemote(cfg.URL, nil)
	if err != nil {
		return nil, &dialError{fmt.Errorf("service: dial upstream %q: %w", cfg.URL, err)}
	}
	return s.RegisterUpstreamDB(cfg, hidden.NewGuard(rdb, hidden.GuardOptions{Retries: s.opts.ProbeRetries}))
}

// DeregisterUpstream removes a namespace and finalizes its persistence with
// a last checkpoint. The default namespace can only be removed once it is
// the last one left.
//
// Ordering is stop-then-finalize: the namespace's background loops (acquirer
// and sentinel) are stopped — waiting for any in-flight tick to yield —
// BEFORE the table entry is removed and the final checkpoint runs. The
// previous deregister-first ordering raced an in-flight acquirer tick
// against teardown: the tick could still be probing (and feeding the
// persister) while Close() wrote the "final" checkpoint, losing its
// knowledge or tripping over the closed store.
func (s *Server) DeregisterUpstream(name string) error {
	s.tmu.RLock()
	t := s.tenants[name]
	s.tmu.RUnlock()
	if t != nil {
		t.stopAcquirer()
		t.stopSentinel()
	}
	s.tmu.Lock()
	var err error
	switch {
	case t == nil || s.tenants[name] != t:
		err = fmt.Errorf("%w: %q", errUnknownUpstream, name)
	case name == s.defName && len(s.tenants) > 1:
		err = fmt.Errorf("%w: %q", errDefaultUpstream, name)
	default:
		s.remove(name)
	}
	s.tmu.Unlock()
	if err != nil {
		// The namespace stays registered (unknown names reach here too, with
		// t == nil): restart what was stopped so a refused DELETE — e.g. of
		// the default namespace — leaves the server exactly as it was.
		if t != nil && !s.draining.Load() {
			if s.opts.Acquire.Enabled {
				s.startAcquirer(t)
			}
			if s.opts.SentinelInterval > 0 {
				s.startSentinel(t)
			}
		}
		return err
	}
	// Final checkpoint outside the locks, against a quiesced engine:
	// in-flight requests that resolved the tenant before removal drain on
	// their own; their knowledge past this point is simply not persisted.
	if p := t.engine().Persister(); p != nil {
		if err := p.Close(); err != nil {
			return fmt.Errorf("service: finalize persistence for %q: %w", name, err)
		}
	}
	return nil
}

// remove drops a namespace from the table; removing the default empties
// the default name (it goes last). Caller holds tmu.
func (s *Server) remove(name string) {
	delete(s.tenants, name)
	if name == s.defName {
		s.defName = ""
	}
}

// upstreamInfo renders one tenant's registry descriptor.
func (s *Server) upstreamInfo(t *tenant) UpstreamInfo {
	st := s.tenantStats(t)
	info := UpstreamInfo{
		Name:             t.name,
		URL:              t.url,
		Default:          st.Default,
		AdmissionWeight:  st.AdmissionWeight,
		Fingerprint:      t.engine().PersistFingerprint(),
		Schema:           schemaResponse(t.db.Schema(), t.db.K()),
		Stats:            st,
		Epoch:            st.Epoch,
		Health:           st.Health,
		LastSentinelUnix: st.LastSentinelUnix,
		StaleRegions:     st.StaleRegions,
	}
	if t.guard != nil {
		if until := t.guard.Health().BackoffUntil; !until.IsZero() {
			info.BackoffUntilUnix = until.Unix()
		}
	}
	return info
}

func (s *Server) handleListUpstreams(w http.ResponseWriter, r *http.Request) {
	resp := UpstreamsResponse{Default: s.defaultName(), Upstreams: []UpstreamInfo{}}
	for _, t := range s.tenantList() {
		resp.Upstreams = append(resp.Upstreams, s.upstreamInfo(t))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRevalidate runs an immediate sentinel pass against the namespace's
// upstream — the operator's "check for drift NOW" button — and reports the
// resulting epoch state. An upstream failure maps exactly like a rerank-path
// probe failure (down → 503, degraded → 502, rate-limited → 429).
func (s *Server) handleRevalidate(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	eng := t.engine()
	bumped, queries, err := eng.SentinelPass()
	if err != nil {
		status, code := upstreamStatus(err)
		httpError(w, status, code, fmt.Errorf("sentinel pass failed: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, RevalidateResponse{
		Epoch:        eng.Epoch(),
		Bumped:       bumped,
		Queries:      queries,
		StaleRegions: eng.Stats().StaleRegions,
	})
}

func (s *Server) handleGetUpstream(w http.ResponseWriter, r *http.Request) {
	t, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.upstreamInfo(t))
}

func (s *Server) handleRegisterUpstream(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejectedDraining.Add(1)
		httpErrorRetry(w, http.StatusServiceUnavailable, ErrCodeDraining, errDraining, time.Second)
		return
	}
	var cfg UpstreamConfig
	if !s.decodeBody(w, r, &cfg) {
		return
	}
	if cfg.URL == "" {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, errors.New("upstream url required"))
		return
	}
	info, err := s.RegisterUpstream(cfg)
	if err != nil {
		switch {
		case errors.Is(err, errUpstreamExists):
			httpError(w, http.StatusConflict, ErrCodeUpstreamExists, err)
		case isDialError(err):
			httpError(w, http.StatusBadGateway, ErrCodeUpstreamFailed, err)
		default:
			httpError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleDeregisterUpstream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("ns")
	if err := s.DeregisterUpstream(name); err != nil {
		switch {
		case errors.Is(err, errUnknownUpstream):
			httpError(w, http.StatusNotFound, ErrCodeUnknownUpstream, err)
		case errors.Is(err, errDefaultUpstream):
			httpError(w, http.StatusConflict, ErrCodeDefaultUpstream, err)
		default:
			httpError(w, http.StatusInternalServerError, ErrCodeUpstreamFailed, err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// dialError marks a RegisterUpstream failure that happened talking to the
// upstream (as opposed to failing local validation), so the HTTP handler
// can answer 502 instead of 400.
type dialError struct{ err error }

func (e *dialError) Error() string { return e.err.Error() }
func (e *dialError) Unwrap() error { return e.err }

func isDialError(err error) bool {
	var de *dialError
	return errors.As(err, &de)
}
