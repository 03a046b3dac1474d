// Proactive knowledge acquisition: the serving-tier wiring of the
// background acquirer (internal/acquire) onto a namespace.
//
// Each enabled namespace runs one Acquirer that watches the engine's
// request-heat sketch and, while the namespace is idle, crawls the hottest
// not-yet-warm query windows through the ordinary session machinery. The
// priority discipline is entirely borrowed from existing mechanisms:
// admission goes through the server gate's reserve-aware low priority
// (under load the acquirer is refused first, never the users), mid-flight
// probes poll the gate's user-pressure signal and abort, and the cost
// lands on the acquirer's own session ledger — the system ledger — so
// client budgets and per-request cost reporting stay clean. See
// docs/acquisition.md.

package service

import (
	"errors"
	"time"

	"repro/internal/acquire"
	"repro/internal/core"
	"repro/internal/types"
)

// AcquireOptions configure proactive background acquisition for every
// registered namespace. Disabled by default: acquisition spends upstream
// queries on speculation, which an operator must opt into.
type AcquireOptions struct {
	// Enabled turns the per-namespace background acquirer on.
	Enabled bool
	// Weight is the admission weight one in-flight acquisition reserves
	// through the low-priority gate (default 1, scaled by the namespace's
	// admission weight like any session).
	Weight int
	// Config is the acquirer's own tuning (tick period, idle gate, windows
	// per tick, warm depth, heat floor; see acquire.Config for defaults).
	acquire.Config
}

// touchUser stamps the tenant's last-user-request clock; called on every
// admitted rerank/batch/stream execution so the acquirer's idle gate sees
// user traffic of any shape.
func (t *tenant) touchUser() { t.lastUser.Store(time.Now().UnixNano()) }

// idleSince reports how long ago the tenant last served a user request. A
// namespace that has never served one counts as idle since forever.
func (t *tenant) idleSince() time.Duration {
	last := t.lastUser.Load()
	if last == 0 {
		return time.Duration(1<<63 - 1)
	}
	return time.Since(time.Unix(0, last))
}

// startAcquirer wires a background acquirer onto the tenant's engine and
// starts its loop. Called under registration once the namespace (and any
// persistence replay, which may restore heat) is in place.
func (s *Server) startAcquirer(t *tenant) {
	ao := s.opts.Acquire
	weight := ao.Weight
	if weight <= 0 {
		weight = 1
	}
	eng := t.engine()
	window := func(w acquire.Window) types.Interval { return types.ClosedInterval(w.Lo, w.Hi) }
	var a *acquire.Acquirer // hooks run only after Start, when a is set
	hooks := acquire.Hooks{
		Candidates: func(max int) []acquire.Candidate { return eng.Heat().Candidates(max) },
		Warm:       func(w acquire.Window) bool { return eng.WindowWarm(w.Attr, window(w)) },
		IdleSince:  t.idleSince,
		Pressure:   func() bool { return s.gate.userPressure(a.Config().IdleAfter) },
		Admit:      func() (func(), bool) { return s.gate.admitLow(weight * t.weight) },
		Acquire: func(w acquire.Window, depth int, abort func() bool) (int64, bool, error) {
			// A fresh session per acquisition is the system ledger: its
			// spend shows up in the engine-wide counter and the acquirer's
			// stats, never in any client's budget window or response.
			sess := eng.NewSession()
			sess.SetAbort(abort)
			err := sess.WarmWindow(w.Attr, window(w), depth)
			if errors.Is(err, core.ErrAcquireAborted) {
				return sess.Queries(), true, nil
			}
			return sess.Queries(), false, err
		},
	}
	a = acquire.New(ao.Config, hooks)
	t.acq = a
	a.Start()
}

// stopAcquirer halts the tenant's acquirer, waiting for any in-flight
// acquisition to yield. Safe when none is running.
func (t *tenant) stopAcquirer() {
	if t.acq != nil {
		t.acq.Stop()
	}
}
