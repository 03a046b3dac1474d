package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/service"
)

// env is what every run in this process shares.
type env struct {
	buildDir   string // <repository root>/.bench_build: binaries, scratch dirs, span files
	rerankdBin string
	logf       func(format string, args ...any)
}

// opResult is the outcome of one executed operation.
type opResult struct {
	latency time.Duration // from the due time in an open loop
	first   time.Duration // streams: time to the first tuple; 0 if none came
	late    time.Duration // open loop: how long after its due time the op was sent
	backlog int           // open loop: ops already due but unsent when this one was sent
	issued  int64         // upstream queries the service charged to the op
	answers []answer      // one per request of the op, nil where that request failed
	shed    bool
	err     error
}

// newClient builds a client with its own connection pool, pinned to the
// default namespace's routes.
func newClient(url string, id int) *service.Client {
	return service.NewClientWith(url,
		service.WithUpstream(service.DefaultUpstream),
		service.WithHTTPClient(&http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}),
		service.WithTimeout(60*time.Second),
		service.WithClientID(fmt.Sprintf("perf-%d", id)))
}

// execOp runs one operation. begin is the instant latency counts from.
func execOp(c *service.Client, o op, begin time.Time) opResult {
	var r opResult
	var err error
	switch o.Kind {
	case op1D, opMD:
		var resp *service.RerankResponse
		if resp, err = c.Rerank(o.Reqs[0]); err == nil {
			r.issued = resp.QueriesIssued
			r.answers = []answer{answerOf(resp.Tuples, resp.Exhausted)}
		}
	case opBatch:
		var resp *service.BatchResponse
		if resp, err = c.RerankBatch(service.BatchRequest{Requests: o.Reqs}); err == nil {
			r.issued = resp.QueriesIssued
			r.answers = make([]answer, len(resp.Items))
			for i, it := range resp.Items {
				if it.Status != http.StatusOK || it.Response == nil {
					err = fmt.Errorf("batch item %d: status %d", i, it.Status)
					continue
				}
				r.answers[i] = answerOf(it.Response.Tuples, it.Response.Exhausted)
			}
		}
	case opStream:
		var tuples []service.TupleJSON
		var final *service.StreamEvent
		final, err = c.RerankStream(o.Reqs[0], func(ev service.StreamEvent) bool {
			if ev.Tuple != nil {
				if r.first == 0 {
					r.first = time.Since(begin)
				}
				// The client decodes every event into a fresh value, so the
				// tuple may be kept.
				tuples = append(tuples, *ev.Tuple)
			}
			return true
		})
		if err == nil {
			r.issued = final.QueriesIssued
			r.answers = []answer{answerOf(tuples, final.Exhausted)}
		}
	}
	r.latency = time.Since(begin)
	if err != nil {
		var se *service.StatusError
		if errors.As(err, &se) && (se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable) {
			r.shed = true
		}
		r.err = err
	}
	return r
}

// dispatch hands the indexes 0..n-1 to fn from the given number of worker
// goroutines and returns when all are done. Workers take indexes in order
// from one shared cursor, so which operation is the i-th issued never
// depends on how many workers there are; they only interleave execution.
func dispatch(n, workers int, fn func(worker, i int)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// timerSlack is how early waitUntil stops sleeping: timers on small VMs
// fire up to a millisecond late, which would make every open-loop send late.
const timerSlack = 1500 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before, then yields in a
// loop.
func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// dueBacklog counts the operations after index i that are already due at
// offset now: work the generator owes but has not sent.
func dueBacklog(due []time.Duration, i int, now time.Duration) int {
	j := sort.Search(len(due), func(k int) bool { return due[k] > now })
	if j <= i+1 {
		return 0
	}
	return j - i - 1
}

// mark is a reading taken at a chunk boundary of an executed sequence.
type mark struct {
	at   time.Duration // since the start of the phase
	cpu  time.Duration // CPU the service has used so far
	self time.Duration // CPU the driver has used so far
}

// load describes how a sequence is executed.
type load struct {
	url     string
	workers int             // closed-loop clients, or the in-flight cap of an open loop
	due     []time.Duration // open loop: when each op becomes due; nil = closed loop
	chunk   int             // ops between two marks; 0 = only start and end
	pid     int             // the service's process, for the marks' CPU readings
}

// run executes ops. In a closed loop each client sends its next operation
// when the previous one completes; in an open loop operation i becomes due
// at due[i] after the start whatever the service is doing, at most `workers`
// are outstanding, and latency counts from the due time, so the wait a
// stall imposes on later operations is part of their latency.
//
// marks[k] is read when operation k·chunk is sent, and the last mark when
// everything has completed, so chunk k of the sequence spans marks[k] to
// marks[k+1] — give or take the operations in flight at a boundary.
func (l load) run(ops []op) (results []opResult, marks []mark, err error) {
	results = make([]opResult, len(ops))
	chunk := l.chunk
	if chunk <= 0 {
		chunk = len(ops)
	}
	marks = make([]mark, (len(ops)+chunk-1)/chunk+1)
	conns := make([]*service.Client, l.workers)
	for w := range conns {
		conns[w] = newClient(l.url, w)
	}
	var markErr atomic.Value
	start := time.Now()
	read := func(k int) {
		cpu, err := procCPU(l.pid)
		if err != nil {
			markErr.Store(err)
		}
		marks[k] = mark{at: time.Since(start), cpu: cpu, self: selfCPU()}
	}
	dispatch(len(ops), l.workers, func(w, i int) {
		begin := time.Now()
		if l.due != nil {
			begin = start.Add(l.due[i])
			waitUntil(begin)
		}
		if i%chunk == 0 {
			read(i / chunk)
		}
		sent := time.Now()
		r := execOp(conns[w], ops[i], begin)
		if l.due != nil {
			r.late = sent.Sub(begin)
			r.backlog = dueBacklog(l.due, i, sent.Sub(start))
		}
		results[i] = r
	})
	read(len(marks) - 1)
	if e, ok := markErr.Load().(error); ok {
		return nil, nil, e
	}
	return results, marks, nil
}

// backlogGrew reports whether the open loop fell behind for good. An op is
// sent late when every in-flight slot is taken at its due time; a burst
// makes a few ops late and drains, but a service slower than the arrival
// rate makes lateness climb for the rest of the run. So the test is the
// median send delay of the last quarter of the schedule: over 10 ms, and
// over twice what the run saw before.
func backlogGrew(results []opResult) bool {
	cut := len(results) * 3 / 4
	var early, last []float64
	for i, r := range results {
		if i < cut {
			early = append(early, msOf(r.late))
		} else {
			last = append(last, msOf(r.late))
		}
	}
	m := median(last)
	return m > 10 && m > 2*median(early)
}

// phase is the checked outcome of one executed sequence.
type phase struct {
	results  []opResult
	marks    []mark
	failed   int   // errors + shed + oracle mismatches
	shed     int   // of those, refused by admission
	issued   int64 // Σ queriesIssued over all responses
	observed int64 // search queries the stub saw meanwhile
	stub     stubCounts
	firstErr error
}

func (p *phase) ledgerOK() bool { return p.issued == p.observed }

func (p *phase) wall() time.Duration { return p.marks[len(p.marks)-1].at }

// cpu and selfCPU are what the service and the driver used during the phase.
func (p *phase) cpu() time.Duration     { return p.marks[len(p.marks)-1].cpu - p.marks[0].cpu }
func (p *phase) selfCPU() time.Duration { return p.marks[len(p.marks)-1].self - p.marks[0].self }

// stack is one running system under test: stub upstream, rerankd child and
// the scratch directory they use.
type stack struct {
	spec  spec
	st    *stub
	ln    *listener
	child *child
	dir   string
	args  []string
	ora   *oracle
}

// runPhase executes ops against the stack and checks every answer against
// the oracle and the service's ledger against the stub's counter.
func (s *stack) runPhase(ops []op, l load) (*phase, error) {
	l.url, l.pid = s.child.url, s.child.pid()
	before := s.st.counts()
	p := &phase{}
	var err error
	if p.results, p.marks, err = l.run(ops); err != nil {
		return nil, err
	}
	p.stub = s.st.counts().sub(before)
	p.observed = p.stub.queries
	// Answers are checked after the clock has stopped, so the oracle's CPU
	// is not part of any measurement.
	for i, r := range p.results {
		p.issued += r.issued
		if r.shed {
			p.shed++
		}
		if err := checkOp(s.ora, ops[i], r); err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d (%s): %w", i, ops[i].Kind, err)
			}
		}
	}
	return p, nil
}

func (s *stack) close() {
	if s.child != nil {
		s.child.kill()
	}
	if s.ln != nil {
		s.ln.close()
	}
}

// bootStack builds the upstream stub and boots a rerankd child against it.
func (e *env) bootStack(sp spec) (*stack, error) {
	ds := dataset.BlueNile(corpusSeed, corpusSize)
	s := &stack{spec: sp, ora: newOracle(ds.Schema, ds.Tuples)}
	s.st = newStub(ds.DB(), sp.stubDelay, nil)
	var err error
	if s.ln, err = serveLoopback(s.st); err != nil {
		return nil, err
	}
	if s.dir, err = scratchDir(e.buildDir, "run-"); err != nil {
		s.close()
		return nil, err
	}
	s.args = sp.rerankdArgs()
	if sp.durable {
		s.args = append(s.args, "-data-dir", filepath.Join(s.dir, "data"), "-checkpoint-interval", sp.ckptEvery.String())
	}
	if s.child, _, err = startRerankd(e.rerankdBin, s.ln.url, s.dir, s.args); err != nil {
		s.close()
		return nil, err
	}
	// The driver owns the corpus, but it talks to the service the way any
	// client would: the schema comes from the namespaced route.
	if _, err := newClient(s.child.url, 0).Schema(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// restart kills the child with SIGKILL and starts it again with the same
// flags, returning the time from exec to the first 200 on /healthz.
func (e *env) restart(s *stack) (time.Duration, error) {
	s.child.kill()
	c, ready, err := startRerankd(e.rerankdBin, s.ln.url, s.dir, s.args)
	if err != nil {
		s.child = nil
		return 0, err
	}
	s.child = c
	return ready.Sub(c.execAt), nil
}

// round is everything one pass over the workload measured: a fresh stack,
// the measured sequence, then kill -9 and restart.
type round struct {
	setupS   float64
	measured *phase
	// Reference-set phases of a durable workload (nil otherwise).
	refBefore, refAfter *phase

	peakRSS  int64
	recoverS []float64 // one entry per restart
	dataDir  int64     // bytes under the data dir at kill time

	statsBefore, statsAfter service.UpstreamStats
	invalid                 []string // correctness rules the round broke
	// overloaded is set when the round's load was not what the workload
	// means to offer: a saturated driver or a growing open-loop backlog. A
	// slow spell of the machine does that to a single round; it invalidates
	// the run only when most rounds agree.
	overloaded string
}

// e2eRun is one end-to-end run of a workload: the same measured sequence
// executed in several rounds, each on a freshly booted stack.
//
// The sandbox this runs in is a small VM whose speed swings by a quarter
// from second to second with its neighbours' load, always downwards from a
// fast state. So nothing is timed once. Every operation, and every chunk
// of the sequence, is executed once per round, and its time is the fastest
// of those executions: interference only adds time, so the minimum is the
// estimate least touched by it. Set-up time and the counts, which the
// contract wants as medians or which do not suffer, are medians over rounds.
type e2eRun struct {
	spec   spec
	ops    int // operations per round
	rounds []*round
}

// restartReps is how many times a round kills and restarts rerankd.
const restartReps = 2

// chunkSeconds is the nominal length of one chunk of a measured sequence:
// short enough that a slow spell of the machine misses some round's copy of
// every chunk, long enough for a CPU reading to mean something.
const chunkSeconds = 0.25

// maxDriverBusy is how busy the driver's CPU (stub, generator and clients
// together) may be during a closed-loop measured phase: past it the clients
// wait for their own processor and the run measures the driver, not the
// service.
const maxDriverBusy = 0.85

func (e *env) runE2E(sp spec, seed int64, seconds, rounds int) (*e2eRun, error) {
	run := &e2eRun{spec: sp, ops: sp.opCount(seconds)}
	for i := 0; i < rounds; i++ {
		r, err := e.runRound(sp, seed, run.ops)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		run.rounds = append(run.rounds, r)
	}
	return run, nil
}

// runRound performs one round: set-up, the measured phase, then kill -9
// and restart.
func (e *env) runRound(sp spec, seed int64, n int) (*round, error) {
	r := &round{}
	t0 := time.Now()
	s, err := e.bootStack(sp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		s.close()
		_ = os.RemoveAll(s.dir)
	}()
	ops := generate(sp, s.ora.schema, seed, saltMeasured, n)
	closed := load{workers: sp.clients}
	if sp.warmupOps > 0 {
		// The warm-up pass is the workload's, not the seed's: what a
		// service knows after it depends on the order it was asked in (a
		// dense region crawled early doubles the history every later scan
		// walks), and the measured phase is meant to start from one state.
		w, err := s.runPhase(generate(sp, s.ora.schema, warmupSeed, saltWarmup, sp.warmupOps), closed)
		if err != nil {
			return nil, err
		}
		if w.failed > 0 || !w.ledgerOK() {
			return nil, fmt.Errorf("warm-up: %d failed ops, ledger %d vs %d observed: %v", w.failed, w.issued, w.observed, w.firstErr)
		}
	}
	measured := load{workers: sp.clients, chunk: max(1, int(sp.opsPerSecond*chunkSeconds))}
	if sp.openRate > 0 {
		measured.due = arrivals(seed, sp.openRate, len(ops))
	}
	r.setupS = time.Since(t0).Seconds()

	client := newClient(s.child.url, 0)
	info, err := client.UpstreamInfo(service.DefaultUpstream)
	if err != nil {
		return nil, err
	}
	r.statsBefore = info.Stats
	if r.measured, err = s.runPhase(ops, measured); err != nil {
		return nil, err
	}
	if r.peakRSS, err = procPeakRSS(s.child.pid()); err != nil {
		return nil, err
	}

	// A reference set is replayed by a single client: with two, which of
	// two identical in-flight probes coalesce is a matter of timing, and
	// the cost of the set would not repeat exactly.
	var ref []op
	single := load{workers: 1}
	if sp.durable {
		// Two checkpoint intervals: everything the measured phase learned
		// is committed before the reference set prices it.
		time.Sleep(2 * sp.ckptEvery)
		ref = generate(sp, s.ora.schema, seed, saltRef, sp.refOps)
		if r.refBefore, err = s.runPhase(ref, single); err != nil {
			return nil, err
		}
	}
	if info, err = client.UpstreamInfo(service.DefaultUpstream); err != nil {
		return nil, err
	}
	r.statsAfter = info.Stats
	if sp.durable {
		if r.dataDir, err = dirBytes(filepath.Join(s.dir, "data")); err != nil {
			return nil, err
		}
	}
	for i := 0; i < restartReps; i++ {
		d, err := e.restart(s)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		r.recoverS = append(r.recoverS, d.Seconds())
	}
	if sp.durable {
		if r.refAfter, err = s.runPhase(ref, single); err != nil {
			return nil, err
		}
		if r.refAfter.issued > r.refBefore.issued {
			r.invalid = append(r.invalid, fmt.Sprintf("reference set cost %d upstream queries after kill -9, %d before",
				r.refAfter.issued, r.refBefore.issued))
		}
	}

	for _, p := range r.phases() {
		if !p.ledgerOK() {
			r.invalid = append(r.invalid, fmt.Sprintf("ledger mismatch: responses report %d upstream queries, the stub saw %d", p.issued, p.observed))
		}
	}
	if sp.openRate > 0 {
		if backlogGrew(r.measured.results) {
			r.overloaded = "open-loop backlog grew"
		}
	} else if busy := r.measured.selfCPU().Seconds() / r.measured.wall().Seconds(); busy > maxDriverBusy {
		r.overloaded = fmt.Sprintf("the driver kept its CPU %.0f%% busy (limit %.0f%%)", busy*100, maxDriverBusy*100)
	}
	return r, nil
}

// phases lists the checked phases of the round: the measured one and, on a
// durable workload, both replays of the reference set.
func (r *round) phases() []*phase {
	out := []*phase{r.measured}
	if r.refBefore != nil {
		out = append(out, r.refBefore)
	}
	if r.refAfter != nil {
		out = append(out, r.refAfter)
	}
	return out
}

// cpuShare is the driver's share of the CPU the driver and the service
// used together during the measured phase.
func (r *round) cpuShare() float64 {
	self, cpu := r.measured.selfCPU(), r.measured.cpu()
	return ratio(float64(self), float64(self+cpu))
}

func (r *e2eRun) attempted() int {
	n := 0
	for _, rd := range r.rounds {
		for _, p := range rd.phases() {
			n += len(p.results)
		}
	}
	return n
}

func (r *e2eRun) failed() int {
	n := 0
	for _, rd := range r.rounds {
		for _, p := range rd.phases() {
			n += p.failed
		}
	}
	return n
}

// problems lists why the run is not a valid result: the first failed
// operation and every correctness rule a round broke, and overload when
// most rounds saw it.
func (r *e2eRun) problems() []string {
	var out, overloads []string
	for i, rd := range r.rounds {
		if rd.overloaded != "" {
			overloads = append(overloads, fmt.Sprintf("round %d: %s", i+1, rd.overloaded))
		}
		for _, p := range rd.phases() {
			if p.firstErr != nil {
				out = append(out, fmt.Sprintf("round %d: %v", i+1, p.firstErr))
				break
			}
		}
		for _, msg := range rd.invalid {
			out = append(out, fmt.Sprintf("round %d: %s", i+1, msg))
		}
	}
	if 2*len(overloads) > len(r.rounds) {
		out = append(out, overloads...)
	}
	return out
}

func (r *e2eRun) correct() bool { return len(r.problems()) == 0 }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fastest returns, for every operation of the sequence, the smallest value
// pick yields over the rounds in which the operation succeeded and pick
// yields a positive duration (ms). Operations with no such round are left
// out. The result is sorted.
func (r *e2eRun) fastest(pick func(opResult) time.Duration) []float64 {
	var out []float64
	for i := 0; i < r.ops; i++ {
		best := time.Duration(0)
		for _, rd := range r.rounds {
			res := rd.measured.results[i]
			if d := pick(res); res.err == nil && d > 0 && (best == 0 || d < best) {
				best = d
			}
		}
		if best > 0 {
			out = append(out, msOf(best))
		}
	}
	sort.Float64s(out)
	return out
}

// fastestChunks sums, over the chunks of the sequence, the smallest value
// pick yields for that chunk over the rounds.
func (r *e2eRun) fastestChunks(pick func(from, to mark) time.Duration) time.Duration {
	var total time.Duration
	for k := 0; k+1 < len(r.rounds[0].measured.marks); k++ {
		best := time.Duration(-1)
		for _, rd := range r.rounds {
			m := rd.measured.marks
			if d := pick(m[k], m[k+1]); best < 0 || d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// overRounds is the median over rounds of a per-round value.
func (r *e2eRun) overRounds(pick func(*round) float64) float64 {
	vals := make([]float64, len(r.rounds))
	for i, rd := range r.rounds {
		vals[i] = pick(rd)
	}
	return median(vals)
}

// endToEnd assembles the run's end-to-end metrics.
func (r *e2eRun) endToEnd() map[string]float64 {
	n := float64(r.ops)
	lat := r.fastest(func(o opResult) time.Duration { return o.latency })
	wall := r.fastestChunks(func(a, b mark) time.Duration { return b.at - a.at })
	if r.spec.openRate > 0 {
		// An open loop's chunks take what the schedule says, except where a
		// backlog drains and they shrink: the fastest would flatter.
		wall = time.Duration(r.overRounds(func(rd *round) float64 { return float64(rd.measured.wall()) }))
	}
	cpu := r.fastestChunks(func(a, b mark) time.Duration { return b.cpu - a.cpu })
	var recoveries []float64
	for _, rd := range r.rounds {
		recoveries = append(recoveries, rd.recoverS...)
	}
	_, tail := tailPercentile(lat, 95)
	return map[string]float64{
		"setup_s":           r.overRounds(func(rd *round) float64 { return rd.setupS }),
		"ops_per_s":         n / wall.Seconds(),
		"lat_p50_ms":        percentile(lat, 50),
		"lat_p95_ms":        tail,
		"upstream_q_per_op": r.overRounds(func(rd *round) float64 { return float64(rd.measured.observed) / n }),
		"cpu_ms_per_op":     msOf(cpu) / n,
		"rss_peak_mb":       r.overRounds(func(rd *round) float64 { return float64(rd.peakRSS) / (1 << 20) }),
		"recover_s":         slices.Min(recoveries),
	}
}
