// Guard wraps a Database in the retry/hedge/backoff layer the living-
// upstreams design requires: real sources time out, flake, and fall over,
// and the paper's cost model (one counted query per *logical* probe) must
// survive all of it. A Guard turns transient upstream failures into
// latency — retries with per-upstream exponential backoff, an optional
// hedged second attempt for tail latency — and tracks a half-open health
// state machine (healthy → degraded → down) so a dead upstream fails fast
// instead of stalling every session on its timeout.
//
// The callers above the Guard (the engine's probe path, crawler, sentinel) treat one
// Guard.TopK call as one logical probe and charge ledgers accordingly; how
// many physical attempts the Guard spent on it is an operational detail
// surfaced only through GuardHealth counters.

package hidden

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/types"
)

// Guard health errors, surfaced by the service tier as 502/503 responses.
var (
	// ErrUpstreamDegraded wraps the final failure of a logical probe that
	// exhausted its retries while the upstream is still being tried.
	ErrUpstreamDegraded = errors.New("hidden: upstream degraded")
	// ErrUpstreamDown is returned without touching the upstream while the
	// health state machine is open (down and inside its backoff window).
	ErrUpstreamDown = errors.New("hidden: upstream down")
)

// HealthState is the guard's view of the upstream.
type HealthState int32

// Health states, in escalation order.
const (
	HealthHealthy  HealthState = iota // last logical probe succeeded
	HealthDegraded                    // recent failures, still trying
	HealthDown                        // failing fast until the backoff expires
)

// String returns the wire form used by the upstream-health API.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthDown:
		return "down"
	}
	return fmt.Sprintf("health(%d)", int32(s))
}

// GuardOptions configure a Guard. The zero value is usable: 2 retries,
// no hedging, 100ms base backoff capped at 30s, down after 3 consecutive
// logical failures.
type GuardOptions struct {
	// Retries is the number of extra attempts after the first, per logical
	// probe (< 0 disables retrying; 0 means default 2).
	Retries int
	// HedgeAfter launches a second identical attempt when the first has
	// not answered within this duration, taking whichever answers first
	// (0 disables hedging). The upstream may see two physical queries;
	// the caller is still charged one.
	HedgeAfter time.Duration
	// BackoffBase is the delay before the first retry and the first down
	// backoff window; it doubles per consecutive failure (default 100ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (default 30s).
	BackoffMax time.Duration
	// DownAfter is the number of consecutive failed logical probes that
	// flips the state to down (default 3).
	DownAfter int

	now   func() time.Time      // test hook; defaults to time.Now
	sleep func(d time.Duration) // test hook; defaults to time.Sleep
}

func (o GuardOptions) withDefaults() GuardOptions {
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.sleep == nil {
		o.sleep = time.Sleep
	}
	return o
}

// GuardHealth is a point-in-time snapshot of a Guard's state machine and
// lifetime counters.
type GuardHealth struct {
	State        HealthState
	ConsecFails  int       // consecutive failed logical probes
	BackoffUntil time.Time // zero unless down

	Probes    int64 // logical probes attempted (excluding fast-fails)
	Failures  int64 // logical probes that failed after all retries
	Retries   int64 // physical retry attempts
	Hedges    int64 // hedged second attempts launched
	HedgeWins int64 // hedges that answered before the primary
	FastFails int64 // probes refused while down, without touching the upstream
}

// Guard wraps db with retries, hedging, and the health state machine. Safe
// for concurrent use.
type Guard struct {
	db   Database
	opts GuardOptions

	mu           sync.Mutex
	state        HealthState
	consecFails  int
	backoffUntil time.Time
	trialing     bool // a half-open trial probe is in flight

	probes, failures, retries    atomic.Int64
	hedges, hedgeWins, fastFails atomic.Int64
}

// NewGuard wraps db. A nil-option call is valid; see GuardOptions.
func NewGuard(db Database, opts GuardOptions) *Guard {
	return &Guard{db: db, opts: opts.withDefaults()}
}

// K implements Database.
func (g *Guard) K() int { return g.db.K() }

// Schema implements Database.
func (g *Guard) Schema() *types.Schema { return g.db.Schema() }

// Health returns a snapshot of the guard's state machine and counters.
func (g *Guard) Health() GuardHealth {
	g.mu.Lock()
	h := GuardHealth{State: g.state, ConsecFails: g.consecFails, BackoffUntil: g.backoffUntil}
	g.mu.Unlock()
	h.Probes = g.probes.Load()
	h.Failures = g.failures.Load()
	h.Retries = g.retries.Load()
	h.Hedges = g.hedges.Load()
	h.HedgeWins = g.hedgeWins.Load()
	h.FastFails = g.fastFails.Load()
	return h
}

// TopK implements Database: one logical probe, physically retried and
// hedged as configured. ErrRateLimited passes through untouched — it is a
// semantic answer from a healthy upstream, not a failure.
func (g *Guard) TopK(q query.Query) (Result, error) {
	if err := g.admit(); err != nil {
		return Result{}, err
	}
	g.probes.Add(1)
	var lastErr error
	for attempt := 0; attempt <= g.opts.Retries; attempt++ {
		if attempt > 0 {
			g.retries.Add(1)
			g.opts.sleep(g.backoff(attempt - 1))
		}
		res, err := g.attempt(q)
		if err == nil {
			g.onSuccess()
			return res, nil
		}
		if errors.Is(err, ErrRateLimited) {
			// A rate limit is the upstream answering, just with "no": end
			// any half-open trial without a health verdict either way.
			g.endTrial()
			return Result{}, err
		}
		lastErr = err
	}
	g.failures.Add(1)
	down, until := g.onFailure()
	if down {
		return Result{}, fmt.Errorf("%w until %s: %v", ErrUpstreamDown, until.Format(time.RFC3339), lastErr)
	}
	return Result{}, fmt.Errorf("%w: %v", ErrUpstreamDegraded, lastErr)
}

// attempt issues one (possibly hedged) physical pass for the probe.
func (g *Guard) attempt(q query.Query) (Result, error) {
	if g.opts.HedgeAfter <= 0 {
		return g.db.TopK(q)
	}
	// The losing leg outlives this call and keeps reading its query, while
	// callers (core's MD resolver) refill theirs in place for the next
	// probe: the legs share a private copy, never the caller's maps.
	q = q.Clone()
	type outcome struct {
		res   Result
		err   error
		hedge bool
	}
	ch := make(chan outcome, 2)
	go func() {
		r, e := g.db.TopK(q)
		ch <- outcome{res: r, err: e}
	}()
	timer := time.NewTimer(g.opts.HedgeAfter)
	defer timer.Stop()
	var first outcome
	select {
	case first = <-ch:
		return first.res, first.err
	case <-timer.C:
		g.hedges.Add(1)
		go func() {
			r, e := g.db.TopK(q)
			ch <- outcome{res: r, err: e, hedge: true}
		}()
		first = <-ch
		if first.err == nil {
			if first.hedge {
				g.hedgeWins.Add(1)
			}
			return first.res, nil
		}
		// The faster leg failed; the slower one may still succeed.
		second := <-ch
		if second.err == nil && second.hedge {
			g.hedgeWins.Add(1)
		}
		return second.res, second.err
	}
}

// admit applies the half-open gate: while down and inside the backoff
// window (or while another trial probe is already in flight) the probe is
// refused without touching the upstream.
func (g *Guard) admit() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state != HealthDown {
		return nil
	}
	now := g.opts.now()
	if now.Before(g.backoffUntil) || g.trialing {
		until := g.backoffUntil
		g.fastFails.Add(1)
		return fmt.Errorf("%w until %s", ErrUpstreamDown, until.Format(time.RFC3339))
	}
	g.trialing = true // this caller carries the half-open trial
	return nil
}

// backoff returns the exponential delay for the nth consecutive failure
// (0-based), capped at BackoffMax.
func (g *Guard) backoff(n int) time.Duration {
	d := g.opts.BackoffBase
	for i := 0; i < n && d < g.opts.BackoffMax; i++ {
		d *= 2
	}
	return min(d, g.opts.BackoffMax)
}

func (g *Guard) onSuccess() {
	g.mu.Lock()
	g.state = HealthHealthy
	g.consecFails = 0
	g.backoffUntil = time.Time{}
	g.trialing = false
	g.mu.Unlock()
}

func (g *Guard) onFailure() (down bool, until time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.trialing = false
	g.consecFails++
	if g.consecFails < g.opts.DownAfter {
		g.state = HealthDegraded
		return false, time.Time{}
	}
	g.state = HealthDown
	g.backoffUntil = g.opts.now().Add(g.backoff(g.consecFails - g.opts.DownAfter))
	return true, g.backoffUntil
}

func (g *Guard) endTrial() {
	g.mu.Lock()
	g.trialing = false
	g.mu.Unlock()
}
