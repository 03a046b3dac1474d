// Regression tests for the flight group's failure semantics: a transient
// upstream failure belongs to the ONE caller whose probe actually failed.
// Before the retry fix, flightGroup.Do handed the leader's error to every
// coalesced follower, fanning a single injected failure out to N unrelated
// requests that never touched the upstream.

package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/types"
)

// TestFlightGroupFollowerRetriesAfterLeaderFailure pins the retry contract
// at the flight-group level with a controlled failing leader: a caller that
// coalesces onto a failing flight must not inherit the leader's error — it
// re-issues as a new leader and succeeds.
func TestFlightGroupFollowerRetriesAfterLeaderFailure(t *testing.T) {
	g := newFlightGroup()
	leaderErr := errors.New("leader-only transient failure")
	block := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() (hidden.Result, error) {
			<-block
			return hidden.Result{}, leaderErr
		})
		leaderDone <- err
	}()
	for {
		g.mu.Lock()
		_, inflight := g.inflight["k"]
		g.mu.Unlock()
		if inflight {
			break
		}
	}
	type outcome struct {
		leader bool
		ran    bool
		err    error
	}
	res := make(chan outcome, 1)
	go func() {
		ran := false
		_, leader, err := g.Do("k", func() (hidden.Result, error) {
			ran = true
			return hidden.Result{Tuples: []types.Tuple{{ID: 1}}}, nil
		})
		res <- outcome{leader, ran, err}
	}()
	// Let the follower park on the flight, then fail the leader.
	time.Sleep(time.Millisecond)
	close(block)
	if err := <-leaderDone; !errors.Is(err, leaderErr) {
		t.Fatalf("leader's own error rewritten: %v", err)
	}
	o := <-res
	if o.err != nil {
		t.Fatalf("follower inherited the leader's failure: %v", o.err)
	}
	if !o.leader || !o.ran {
		t.Fatalf("follower did not re-issue after the failed flight: leader=%v ran=%v", o.leader, o.ran)
	}
}

// TestCoalescedTransientFailuresDoNotFanOut hammers one engine from many
// goroutines over a tiny query set through a FlakyDB, so injected transient
// failures regularly hit flights with coalesced followers. The invariant the
// retry fix establishes: every error a caller observes is from its OWN
// upstream attempt, so the number of caller-visible errors equals the number
// of injected failures — no fan-out, and no failure silently swallowed.
func TestCoalescedTransientFailuresDoNotFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, _ := newTestDB(t, rng, 2, 400, 10, false, systemRankers(2)[0])
	fdb := &hidden.FlakyDB{DB: db, FailEvery: 3}
	// The gate sits in front of the failure injection: the first round's four
	// leaders park on it until each has a follower, so the failure among
	// them is a failed flight somebody coalesced onto by construction.
	gate := &gateDB{inner: fdb, gate: make(chan struct{})}
	// No probe cache: every probe must go through a flight, so injected
	// failures keep hitting coalesced groups for the whole test.
	e := NewEngine(gate, Options{N: 400, ProbeCacheSize: -1})

	queries := []query.Query{
		query.New(),
		query.New().WithCat("cat", "x"),
		query.New().WithCat("cat", "y"),
		query.New().WithCat("cat", "z"),
	}
	const workers, iters = 8, 60
	var wg sync.WaitGroup
	var callerErrs sync.Map
	errCount := int64(0)
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; i < iters; i++ {
				_, _, err := s.probe(queries[(w+i)%len(queries)])
				if err != nil {
					if !errors.Is(err, hidden.ErrTransient) {
						callerErrs.Store(err.Error(), true)
					}
					mu.Lock()
					errCount++
					mu.Unlock()
				}
			}
		}(w)
	}
	for _, q := range queries {
		awaitFollowers(e, q, workers/len(queries)-1)
	}
	close(gate.gate)
	wg.Wait()
	callerErrs.Range(func(k, _ any) bool {
		t.Errorf("caller observed a non-injected error: %v", k)
		return true
	})
	if errCount != fdb.Injected() {
		t.Fatalf("callers observed %d errors for %d injected failures: "+
			"fan-out (errors > injected) means followers inherited a leader's failure; "+
			"fewer means a real failure was swallowed", errCount, fdb.Injected())
	}
	if fdb.Injected() == 0 {
		t.Fatal("no failures injected; test exercised nothing")
	}
}
