// Serving-tier admission: the request-shedding layer in front of the
// engines.
//
// One weighted session gate (admissionGate, Options.MaxSessions) bounds
// in-flight work across all namespaces. Handlers reserve their slots BEFORE
// creating sessions, so overload is rejected cheaply instead of queueing
// unbounded work behind the upstream. A batch of N reserves N slots in one
// atomic step, so it is never half-admitted. Admission never blocks: the
// contract is "fail fast with Retry-After", which also keeps the gate
// deadlock-free under any weights. Library callers that create sessions
// directly (experiments, qrank) never meet the gate.
//
// Around the gate this file adds the HTTP semantics: 429 + Retry-After on
// overload, an optional per-client upstream-query budget window (the
// paper's cost ledger turned into a QoS primitive: every response already
// reports queriesIssued, here the same number is charged against a
// header-keyed allowance, pooled across namespaces), and the draining state
// a graceful shutdown uses to stop admitting while in-flight requests
// finish.

package service

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Options configure the serving tier around the namespace table.
type Options struct {
	// Core seeds every namespace's engine options; Core.N is the default
	// size estimate, overridable per namespace.
	Core core.Options
	// MaxSessions bounds the session weight admitted at once across ALL
	// namespaces (0 = unlimited). A request weighs 1 (a batch of N weighs
	// N), scaled by its namespace's UpstreamConfig.AdmissionWeight; the
	// excess is shed with 429 + Retry-After.
	MaxSessions int
	// MaxBodyBytes bounds request bodies (default 1 MiB). Oversized
	// bodies get 413.
	MaxBodyBytes int64
	// ClientBudget, when > 0, is the number of upstream queries each
	// client (keyed by the X-Client-ID header; empty key is one shared
	// anonymous bucket) may cost per ClientBudgetWindow. A client over
	// budget gets 429 with Retry-After set to the window's remaining
	// seconds. Deduplicated/cached probes are free here exactly as in
	// response accounting: only queries that reached the upstream charge.
	ClientBudget int64
	// ClientBudgetWindow is the budget window length (default 1 minute).
	ClientBudgetWindow time.Duration
	// StreamWriteTimeout bounds each NDJSON event write on the stream
	// route (default 30s). A client that stops reading past
	// this stalls its write, which ends the stream and releases its
	// admission slot — stalled readers cannot pin capacity forever.
	StreamWriteTimeout time.Duration
	// Acquire configures proactive background knowledge acquisition per
	// namespace (disabled by default; see acquire.go and
	// docs/acquisition.md).
	Acquire AcquireOptions
	// SentinelInterval is the period of each namespace's sentinel pass, the
	// cheap probe set that detects upstream drift and bumps the knowledge
	// epoch (0 = off; see sentinel.go and docs/epochs.md).
	SentinelInterval time.Duration
	// ProbeRetries is the number of extra attempts per logical probe of the
	// guard wrapped around every REMOTE upstream (< 0 disables retrying; 0
	// means the guard default of 2). In-process databases are never wrapped
	// — they cannot flake.
	ProbeRetries int
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.ClientBudgetWindow <= 0 {
		o.ClientBudgetWindow = time.Minute
	}
	if o.StreamWriteTimeout <= 0 {
		o.StreamWriteTimeout = 30 * time.Second
	}
	return o
}

// admissionGate is a weighted, non-blocking semaphore. The zero capacity
// means unlimited: admission always succeeds but still counts in-flight
// weight, so SessionsInFlight stays meaningful for metrics either way.
//
// The gate distinguishes two priorities. User-priority admission (admit)
// may use the full capacity; low-priority admission (admitLow, used by the
// background knowledge acquirer) is refused whenever admitting it would
// leave fewer than a reserve of slots free, so background work can never
// squeeze a user burst. Every user-priority refusal is timestamped, giving
// the acquirer a cheap "user traffic was just shed" signal to poll between
// probes.
type admissionGate struct {
	mu   sync.Mutex
	cap  int // 0 = unlimited
	used int
	// lowUsed is the slice of used held at background priority. Pressure is
	// computed on user-held weight only (used-lowUsed): the acquirer's own
	// admitted slot must never read as "a user is waiting", or any gate
	// whose reserve equals its capacity minus the acquisition weight would
	// make the acquirer abort itself at its first probe.
	lowUsed int

	// lastDenied is the unix-nano time of the most recent user-priority
	// refusal (0 = never). Written only on the shed path, read lock-free.
	lastDenied atomic.Int64
}

func newAdmissionGate(capacity int) *admissionGate {
	return &admissionGate{cap: max(capacity, 0)}
}

// admit reserves weight slots at user priority if they all fit,
// atomically. A refusal stamps lastDenied: user traffic was just shed, so
// background work must back off. The returned release is idempotent, so
// calling it from both an error path and a deferred cleanup is safe.
func (g *admissionGate) admit(weight int) (release func(), ok bool) {
	return g.acquire(weight, false)
}

// admitLow reserves weight slots at background priority: it refuses
// whenever the reservation would dip into the reserve kept free for user
// traffic. Always admits on an unlimited gate. Idempotent release.
func (g *admissionGate) admitLow(weight int) (release func(), ok bool) {
	return g.acquire(weight, true)
}

func (g *admissionGate) acquire(weight int, low bool) (release func(), ok bool) {
	weight = max(weight, 1)
	g.mu.Lock()
	limit := g.cap
	if low {
		limit -= g.reserveSlots()
	}
	if g.cap > 0 && g.used+weight > limit {
		g.mu.Unlock()
		if !low {
			g.lastDenied.Store(time.Now().UnixNano())
		}
		return nil, false
	}
	g.used += weight
	if low {
		g.lowUsed += weight
	}
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.used -= weight
			if low {
				g.lowUsed -= weight
			}
			g.mu.Unlock()
		})
	}, true
}

// reserveSlots returns the capacity withheld from low-priority admission:
// a quarter of the gate, at least one slot. Zero with an unlimited gate
// (capacity is not scarce, so there is nothing to reserve).
func (g *admissionGate) reserveSlots() int {
	if g.cap <= 0 {
		return 0
	}
	return max(g.cap/4, 1)
}

// userPressure reports whether user traffic is contending for the gate:
// either a user-priority admission was refused within the given window, or
// user-held weight has climbed into the low-priority reserve. Only user
// weight (used-lowUsed) counts — background admissions never pressure
// themselves. The background acquirer polls this between probes to yield
// mid-flight.
func (g *admissionGate) userPressure(window time.Duration) bool {
	if d := g.lastDenied.Load(); d != 0 && time.Now().UnixNano()-d < int64(window) {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cap > 0 && g.used-g.lowUsed >= g.cap-g.reserveSlots()
}

func (g *admissionGate) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// ClientIDHeader keys per-client budget windows.
const ClientIDHeader = "X-Client-ID"

// budgetWindow is one client's running allowance window. inflight counts
// the client's requests currently executing: each reserves one unit of the
// allowance at admission, so a concurrent burst cannot multiply the budget
// by passing the check before any completed request has been charged.
type budgetWindow struct {
	start    time.Time
	used     int64
	inflight int64
}

// budgetLedger tracks per-client upstream-query spending in fixed windows.
// Windows are lazily reset on first touch after expiry; expired idle
// clients are pruned at most once per window, so the map stays proportional
// to the set of clients active within the last window and admission never
// pays a per-request O(clients) scan.
type budgetLedger struct {
	limit  int64
	window time.Duration
	now    func() time.Time

	mu        sync.Mutex
	clients   map[string]*budgetWindow
	lastPrune time.Time
}

func newBudgetLedger(limit int64, window time.Duration, now func() time.Time) *budgetLedger {
	if limit <= 0 {
		return nil
	}
	if now == nil {
		now = time.Now
	}
	return &budgetLedger{
		limit:   limit,
		window:  window,
		now:     now,
		clients: make(map[string]*budgetWindow),
	}
}

// begin admits one request against the client's allowance, reserving one
// in-flight unit, and returns the settle function the caller must invoke
// when the request finishes with its actual upstream cost. When the client
// is over budget (spent plus in-flight reservations reach the limit) it
// returns ok=false with the backoff to advertise. Actual charges land at
// settle time, so one request may overshoot its remaining allowance — the
// overshoot is carried until the window that absorbed it expires.
func (l *budgetLedger) begin(key string) (ok bool, retryAfter time.Duration, settle func(issued int64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	w := l.fetch(key, now)
	if w.used+w.inflight >= l.limit {
		if w.used >= l.limit {
			return false, w.start.Add(l.window).Sub(now), nil
		}
		// Bound hit by concurrent in-flight reservations, not spent
		// budget: a short backoff, since slots free as requests finish.
		return false, time.Second, nil
	}
	w.inflight++
	return true, 0, func(issued int64) {
		l.mu.Lock()
		defer l.mu.Unlock()
		w.inflight--
		if issued > 0 {
			w.used += issued
		}
	}
}

// fetch returns the client's live window, resetting it if expired, and
// occasionally prunes idle expired clients. Caller holds l.mu.
func (l *budgetLedger) fetch(key string, now time.Time) *budgetWindow {
	w, ok := l.clients[key]
	if !ok {
		if len(l.clients) >= 1024 && now.Sub(l.lastPrune) >= l.window {
			for k, old := range l.clients {
				if old.inflight == 0 && now.Sub(old.start) >= l.window {
					delete(l.clients, k)
				}
			}
			l.lastPrune = now
		}
		w = &budgetWindow{start: now}
		l.clients[key] = w
	} else if now.Sub(w.start) >= l.window {
		w.start, w.used = now, 0
	}
	return w
}

// admit runs the full admission pipeline for a request that will create
// weight sessions against tenant t: drain check, per-client budget check,
// shared gate reservation (scaled by the namespace's admission weight).
// On rejection it writes the error envelope (503 draining, or 429 with
// Retry-After) and returns ok=false. On success the caller must invoke both
// returned functions when the request finishes: release frees the session
// slots (idempotent) and charge books the request's actual upstream cost
// against the client's budget window.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, t *tenant, weight int) (release func(), charge func(issued int64), ok bool) {
	if s.draining.Load() {
		s.rejectedDraining.Add(1)
		httpErrorRetry(w, http.StatusServiceUnavailable, ErrCodeDraining, errDraining, time.Second)
		return nil, nil, false
	}
	var settle func(int64)
	if s.budgets != nil {
		clientKey := r.Header.Get(ClientIDHeader)
		allowed, retry, fn := s.budgets.begin(clientKey)
		if !allowed {
			s.rejectedBudget.Add(1)
			httpErrorRetry(w, http.StatusTooManyRequests, ErrCodeBudget,
				fmt.Errorf("client %q over upstream-query budget (retry in %s)", clientKey, retry.Round(time.Second)),
				retry)
			return nil, nil, false
		}
		settle = fn
	}
	rel, admitted := s.gate.admit(max(weight, 1) * t.weight)
	if !admitted {
		if settle != nil {
			settle(0) // return the budget reservation
		}
		s.rejectedCapacity.Add(1)
		httpErrorRetry(w, http.StatusTooManyRequests, ErrCodeCapacity,
			fmt.Errorf("server at capacity (%d in-flight session weight, limit %d)",
				s.gate.inFlight(), s.gate.cap),
			time.Second)
		return nil, nil, false
	}
	charge = func(issued int64) {
		if settle != nil {
			settle(issued)
		}
	}
	return rel, charge, true
}

var errDraining = fmt.Errorf("server is draining for shutdown")

// BeginDrain puts the server into draining mode: every subsequent request
// (including /healthz, so load balancers deregister the instance) is
// rejected with 503 while in-flight requests run to completion. Background
// acquirers are stopped FIRST — speculative acquisition must not race the
// final checkpoints or prolong shutdown — and BeginDrain returns only once
// any in-flight acquisition has yielded. Callers typically pair it with
// http.Server.Shutdown and a final ClosePersistence — see cmd/rerankd. Draining is
// not reversible.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	for _, t := range s.tenantList() {
		t.stopAcquirer()
		t.stopSentinel()
	}
}
