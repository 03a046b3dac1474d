package hidden

import (
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// funcDB is a Database whose TopK is an arbitrary function — the failure
// injector the guard tests script against.
type funcDB struct {
	schema *types.Schema
	k      int
	calls  atomic.Int64
	fn     func(call int64, q query.Query) (Result, error)
}

func (d *funcDB) TopK(q query.Query) (Result, error) {
	return d.fn(d.calls.Add(1), q)
}

func (d *funcDB) K() int                { return d.k }
func (d *funcDB) Schema() *types.Schema { return d.schema }

// noSleep and a settable fake clock keep the guard tests instant: backoff
// delays are recorded, never slept.
func guardTestOpts(o GuardOptions, now *time.Time, slept *[]time.Duration) GuardOptions {
	o.now = func() time.Time { return *now }
	o.sleep = func(d time.Duration) {
		if slept != nil {
			*slept = append(*slept, d)
		}
	}
	return o
}

func okResult() Result {
	return Result{Tuples: []types.Tuple{{ID: 7, Ord: []float64{1, 2, 0}}}}
}

func TestGuardRetriesTransient(t *testing.T) {
	inner := &funcDB{schema: schema1(), k: 5}
	inner.fn = func(call int64, _ query.Query) (Result, error) {
		if call <= 2 {
			return Result{}, ErrTransient
		}
		return okResult(), nil
	}
	now := time.Unix(1000, 0)
	var slept []time.Duration
	g := NewGuard(inner, guardTestOpts(GuardOptions{}, &now, &slept))

	res, err := g.TopK(query.New())
	if err != nil {
		t.Fatalf("retried probe should succeed: %v", err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].ID != 7 {
		t.Fatalf("wrong result: %+v", res)
	}
	h := g.Health()
	if h.State != HealthHealthy || h.ConsecFails != 0 {
		t.Fatalf("state after recovery = %v/%d, want healthy/0", h.State, h.ConsecFails)
	}
	if h.Probes != 1 || h.Retries != 2 || h.Failures != 0 {
		t.Fatalf("counters probes=%d retries=%d failures=%d, want 1/2/0", h.Probes, h.Retries, h.Failures)
	}
	if inner.calls.Load() != 3 {
		t.Fatalf("physical calls = %d, want 3", inner.calls.Load())
	}
	// Exponential backoff: first retry waits base, second doubles it.
	if len(slept) != 2 || slept[0] != 100*time.Millisecond || slept[1] != 200*time.Millisecond {
		t.Fatalf("backoff schedule = %v, want [100ms 200ms]", slept)
	}
}

func TestGuardDegradedThenDown(t *testing.T) {
	inner := &funcDB{schema: schema1(), k: 5}
	inner.fn = func(int64, query.Query) (Result, error) {
		return Result{}, ErrTransient
	}
	now := time.Unix(1000, 0)
	g := NewGuard(inner, guardTestOpts(GuardOptions{Retries: -1, DownAfter: 3}, &now, nil))

	// Failures 1 and 2 leave the guard degraded but still trying.
	for i := 0; i < 2; i++ {
		if _, err := g.TopK(query.New()); !errors.Is(err, ErrUpstreamDegraded) {
			t.Fatalf("failure %d: got %v, want ErrUpstreamDegraded", i+1, err)
		}
	}
	if h := g.Health(); h.State != HealthDegraded || h.ConsecFails != 2 {
		t.Fatalf("after 2 failures: %v/%d, want degraded/2", h.State, h.ConsecFails)
	}
	// Failure 3 trips the breaker.
	if _, err := g.TopK(query.New()); !errors.Is(err, ErrUpstreamDown) {
		t.Fatalf("failure 3: got %v, want ErrUpstreamDown", err)
	}
	h := g.Health()
	if h.State != HealthDown || h.BackoffUntil.IsZero() {
		t.Fatalf("after 3 failures: %v backoffUntil=%v, want down with window", h.State, h.BackoffUntil)
	}
	physical := inner.calls.Load()
	if physical != 3 {
		t.Fatalf("physical calls = %d, want 3 (Retries<0 disables retrying)", physical)
	}

	// Inside the backoff window: fast-fail without touching the upstream.
	if _, err := g.TopK(query.New()); !errors.Is(err, ErrUpstreamDown) {
		t.Fatalf("while down: got %v, want ErrUpstreamDown", err)
	}
	if inner.calls.Load() != physical {
		t.Fatal("fast-fail must not touch the upstream")
	}
	h = g.Health()
	if h.FastFails != 1 || h.Probes != 3 {
		t.Fatalf("fastFails=%d probes=%d, want 1/3 (fast-fails are not probes)", h.FastFails, h.Probes)
	}
}

func TestGuardHalfOpenRecovery(t *testing.T) {
	healthy := false
	inner := &funcDB{schema: schema1(), k: 5}
	inner.fn = func(int64, query.Query) (Result, error) {
		if !healthy {
			return Result{}, ErrTransient
		}
		return okResult(), nil
	}
	now := time.Unix(1000, 0)
	g := NewGuard(inner, guardTestOpts(GuardOptions{Retries: -1, DownAfter: 2}, &now, nil))

	g.TopK(query.New())
	g.TopK(query.New()) // trips to down
	if h := g.Health(); h.State != HealthDown {
		t.Fatalf("setup: state = %v, want down", h.State)
	}

	// Advance the clock past the backoff window; the upstream has recovered.
	healthy = true
	now = g.Health().BackoffUntil.Add(time.Millisecond)
	res, err := g.TopK(query.New())
	if err != nil {
		t.Fatalf("half-open trial should succeed: %v", err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("wrong trial result: %+v", res)
	}
	h := g.Health()
	if h.State != HealthHealthy || h.ConsecFails != 0 || !h.BackoffUntil.IsZero() {
		t.Fatalf("after recovery: %+v, want healthy/0/zero-backoff", h)
	}
}

func TestGuardDownBackoffEscalates(t *testing.T) {
	inner := &funcDB{schema: schema1(), k: 5}
	inner.fn = func(int64, query.Query) (Result, error) {
		return Result{}, ErrTransient
	}
	now := time.Unix(1000, 0)
	g := NewGuard(inner, guardTestOpts(GuardOptions{Retries: -1, DownAfter: 1, BackoffBase: time.Second, BackoffMax: 4 * time.Second}, &now, nil))

	var windows []time.Duration
	for i := 0; i < 5; i++ {
		g.TopK(query.New()) // half-open trial, fails again
		until := g.Health().BackoffUntil
		windows = append(windows, until.Sub(now))
		now = until.Add(time.Millisecond)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second, 4 * time.Second}
	for i := range want {
		if windows[i] != want[i] {
			t.Fatalf("backoff windows = %v, want %v", windows, want)
		}
	}
}

func TestGuardHedging(t *testing.T) {
	inner := &funcDB{schema: schema1(), k: 5}
	release := make(chan struct{})
	inner.fn = func(call int64, _ query.Query) (Result, error) {
		if call == 1 {
			<-release // primary stalls until the test lets it go
		}
		return okResult(), nil
	}
	now := time.Unix(1000, 0)
	g := NewGuard(inner, guardTestOpts(GuardOptions{HedgeAfter: time.Millisecond}, &now, nil))

	res, err := g.TopK(query.New())
	close(release)
	if err != nil {
		t.Fatalf("hedged probe failed: %v", err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].ID != 7 {
		t.Fatalf("wrong hedged result: %+v", res)
	}
	h := g.Health()
	if h.Hedges != 1 || h.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", h.Hedges, h.HedgeWins)
	}
	// The upstream saw two physical queries; the caller is charged ONE
	// logical probe. This is the never-double-charge invariant.
	if h.Probes != 1 {
		t.Fatalf("logical probes = %d, want 1 despite hedge", h.Probes)
	}
	if inner.calls.Load() != 2 {
		t.Fatalf("physical calls = %d, want 2 (primary + hedge)", inner.calls.Load())
	}
}

// TestGuardHedgeLoserKeepsOwnQuery: the losing hedge leg is still running
// when TopK returns, and callers reuse their query as a scratch buffer. The
// slow leg here reads its query only after the caller has overwritten it; it
// must still see the probe it was launched for.
func TestGuardHedgeLoserKeepsOwnQuery(t *testing.T) {
	probe := query.New().WithRange(0, types.ClosedInterval(1, 2))
	inner := &funcDB{schema: schema1(), k: 5}
	release := make(chan struct{})
	seen := make(chan string, 1)
	inner.fn = func(call int64, q query.Query) (Result, error) {
		if call == 1 {
			<-release
			seen <- q.String()
		}
		return okResult(), nil
	}
	now := time.Unix(1000, 0)
	g := NewGuard(inner, guardTestOpts(GuardOptions{HedgeAfter: time.Millisecond}, &now, nil))

	q := probe.Clone()
	if _, err := g.TopK(q); err != nil {
		t.Fatalf("hedged probe failed: %v", err)
	}
	q.CopyFrom(query.New().WithRange(0, types.ClosedInterval(8, 9)).WithCat("c", "x"))
	close(release)
	if got := <-seen; got != probe.String() {
		t.Fatalf("losing hedge leg read %q after the caller reused its query, want %q", got, probe.String())
	}
}

func TestGuardRateLimitPassThrough(t *testing.T) {
	inner := &funcDB{schema: schema1(), k: 5}
	inner.fn = func(int64, query.Query) (Result, error) {
		return Result{}, ErrRateLimited
	}
	now := time.Unix(1000, 0)
	g := NewGuard(inner, guardTestOpts(GuardOptions{}, &now, nil))

	if _, err := g.TopK(query.New()); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("got %v, want ErrRateLimited passed through", err)
	}
	h := g.Health()
	// A rate limit is an answer, not a failure: no retries burned, no health
	// verdict either way.
	if h.State != HealthHealthy || h.Failures != 0 || h.Retries != 0 {
		t.Fatalf("rate limit must not move health: %+v", h)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("physical calls = %d, want 1 (no retry on rate limit)", inner.calls.Load())
	}
}

// TestGuardFlakyExactCharging drives a 20%-failure upstream through the
// guard and checks the paper's cost model end to end: every logical probe
// succeeds, answers are identical to the healthy database's, the guard
// charges exactly one logical probe per call, and tail latency stays within
// the acceptance envelope (p99 under 3x healthy p99 plus scheduling slack).
func TestGuardFlakyExactCharging(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tuples := mkTuples(300, rng)
	sys := RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Asc)}
	db := MustDB(schema1(), tuples, Options{K: 10, Ranker: sys})
	flaky := &FlakyDB{DB: db, FailEvery: 5} // 20% injected failures
	now := time.Unix(1000, 0)
	g := NewGuard(flaky, guardTestOpts(GuardOptions{}, &now, nil))

	const probes = 200
	queries := make([]query.Query, probes)
	for i := range queries {
		lo := rng.Float64() * 80
		queries[i] = query.New().WithRange(rng.Intn(2), types.ClosedInterval(lo, lo+20))
	}

	healthyLat := make([]time.Duration, probes)
	for i, q := range queries {
		start := time.Now()
		if _, err := db.TopK(q); err != nil {
			t.Fatalf("healthy probe %d: %v", i, err)
		}
		healthyLat[i] = time.Since(start)
	}
	db.ResetCounter()

	flakyLat := make([]time.Duration, probes)
	for i, q := range queries {
		start := time.Now()
		got, err := g.TopK(q)
		flakyLat[i] = time.Since(start)
		if err != nil {
			t.Fatalf("guarded flaky probe %d: %v", i, err)
		}
		want, err := db.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Tuples) != len(want.Tuples) || got.Overflow != want.Overflow {
			t.Fatalf("probe %d: wrong shape %d/%v vs %d/%v", i, len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow)
		}
		for j := range got.Tuples {
			if got.Tuples[j].ID != want.Tuples[j].ID {
				t.Fatalf("probe %d tuple %d: id %d != %d — guarded answer diverged", i, j, got.Tuples[j].ID, want.Tuples[j].ID)
			}
		}
	}

	h := g.Health()
	if h.Probes != probes {
		t.Fatalf("logical probes = %d, want exactly %d", h.Probes, probes)
	}
	if h.Failures != 0 || h.FastFails != 0 {
		t.Fatalf("failures=%d fastFails=%d, want 0/0 at 20%% flake with retries", h.Failures, h.FastFails)
	}
	if h.Retries != flaky.Injected() {
		t.Fatalf("retries=%d != injected failures=%d — charging drifted", h.Retries, flaky.Injected())
	}
	if h.State != HealthHealthy {
		t.Fatalf("state = %v, want healthy", h.State)
	}

	p99 := func(d []time.Duration) time.Duration {
		s := append([]time.Duration(nil), d...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[len(s)*99/100]
	}
	hp, fp := p99(healthyLat), p99(flakyLat)
	// Backoff sleeps are no-ops here, so the flaky path costs only the
	// retried physical calls; 3x + 2ms absorbs scheduler noise.
	if limit := 3*hp + 2*time.Millisecond; fp > limit {
		t.Fatalf("flaky p99 %v exceeds %v (healthy p99 %v)", fp, limit, hp)
	}
}
