// The serving-tier sentinel scheduler: one background loop per namespace
// that periodically runs the engine's SentinelPass (a fixed, tiny probe set
// against the upstream) so corpus drift bumps the knowledge epoch without
// any operator action. The loop is started at registration, stopped by
// deregistration and BeginDrain, and restartable (a new loop object per
// start).
//
// A pass that fails — upstream degraded, down, or rate-limited — is simply
// skipped: the engine leaves its digests untouched (a flaky pass must not
// fake drift), the guard's health counters record the failure, and the next
// tick tries again.

package service

import (
	"sync"
	"time"
)

// sentinelLoop is one namespace's running sentinel scheduler.
type sentinelLoop struct {
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// startSentinel wires a sentinel loop onto the tenant's engine and starts
// it. Called under registration (after any persistence replay, so the first
// pass baselines against restored knowledge's upstream) and by the
// deregistration error path to undo a premature stop.
func (s *Server) startSentinel(t *tenant) {
	loop := &sentinelLoop{stop: make(chan struct{}), done: make(chan struct{})}
	t.sent = loop
	eng := t.engine()
	go func() {
		defer close(loop.done)
		ticker := time.NewTicker(s.opts.SentinelInterval)
		defer ticker.Stop()
		for {
			select {
			case <-loop.stop:
				return
			case <-ticker.C:
				// Errors are deliberately dropped here: UpstreamStats'
				// sentinel and guard counters carry the evidence, and a
				// failed pass changes no digests.
				_, _, _ = eng.SentinelPass()
			}
		}
	}()
}

// stopSentinel halts the tenant's sentinel loop, waiting for an in-flight
// pass to finish. Safe when none is running; safe to call twice.
func (t *tenant) stopSentinel() {
	if t.sent == nil {
		return
	}
	t.sent.stopOnce.Do(func() { close(t.sent.stop) })
	<-t.sent.done
}
