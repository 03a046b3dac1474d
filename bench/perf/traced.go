package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/types"
)

// spanDB records a span around every TopK of the database it wraps.
type spanDB struct {
	inner hidden.Database
	rec   *recorder
	name  string
}

func (d spanDB) TopK(q query.Query) (hidden.Result, error) {
	t := d.rec.begin(d.name)
	res, err := d.inner.TopK(q)
	d.rec.end(t)
	return res, err
}
func (d spanDB) K() int                { return d.inner.K() }
func (d spanDB) Schema() *types.Schema { return d.inner.Schema() }

// spanHandler records a span around every rerank request the service
// handles, with the bytes it answered and, for streams, the time to the
// first event.
type spanHandler struct {
	inner http.Handler
	rec   *recorder

	mu         sync.Mutex
	respBytes  int64
	firstEvent []float64 // µs, one per stream request
}

// timedWriter notes when a handler first writes and how much.
type timedWriter struct {
	http.ResponseWriter
	bytes int64
	first time.Time
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the real writer's Flush and
// deadlines.
func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || !strings.Contains(r.URL.Path, "/rerank") {
		h.inner.ServeHTTP(w, r)
		return
	}
	tw := &timedWriter{ResponseWriter: w}
	start := time.Now()
	t := h.rec.begin("service.handle")
	h.inner.ServeHTTP(tw, r)
	h.rec.end(t)
	h.mu.Lock()
	h.respBytes += tw.bytes
	if strings.HasSuffix(r.URL.Path, "/stream") && !tw.first.IsZero() {
		h.firstEvent = append(h.firstEvent, float64(tw.first.Sub(start))/float64(time.Microsecond))
	}
	h.mu.Unlock()
}

// inproc is the workload's stack rebuilt inside the benchmark process from
// public constructors: stub ← RemoteDB ← Guard ← Server ← Client, each
// boundary wrapped in a span recorder when rec is set.
type inproc struct {
	st      *stub
	stubLn  *listener
	srv     *service.Server
	srvLn   *listener
	handler *spanHandler // nil when untraced
	client  *service.Client
	ora     *oracle
	db      hidden.Database
}

func serverOptions(sp spec) service.Options {
	return service.Options{Core: core.Options{
		N:                 corpusSize,
		SearchParallelism: sp.searchWidth,
		ProbeCacheSize:    sp.probeCache,
	}}
}

func buildInproc(sp spec, rec *recorder, dataDir string) (*inproc, error) {
	ds := dataset.BlueNile(corpusSeed, corpusSize)
	p := &inproc{ora: newOracle(ds.Schema, ds.Tuples)}
	p.st = newStub(ds.DB(), sp.stubDelay, rec)
	var err error
	if p.stubLn, err = serveLoopback(p.st); err != nil {
		return nil, err
	}
	rdb, err := service.DialRemote(p.stubLn.url, nil)
	if err != nil {
		p.close()
		return nil, err
	}
	p.db = rdb
	if rec != nil {
		p.db = spanDB{inner: p.db, rec: rec, name: "remote.topk"}
	}
	// The same guard, with the same defaults, that RegisterUpstream wraps
	// around a remote upstream.
	p.db = hidden.NewGuard(p.db, hidden.GuardOptions{})
	if rec != nil {
		p.db = spanDB{inner: p.db, rec: rec, name: "guard.topk"}
	}
	p.srv = service.NewServerWithOptions(p.db, serverOptions(sp))
	if dataDir != "" {
		// Checkpoints are taken explicitly, so each can be timed.
		if err := p.srv.OpenDataDir(dataDir, service.PersistConfig{}); err != nil {
			p.close()
			return nil, err
		}
	}
	h := p.srv.Handler()
	if rec != nil {
		p.handler = &spanHandler{inner: h, rec: rec}
		h = p.handler
	}
	if p.srvLn, err = serveLoopback(h); err != nil {
		p.close()
		return nil, err
	}
	p.client = newClient(p.srvLn.url, 0)
	return p, nil
}

func (p *inproc) close() {
	if p.srvLn != nil {
		p.srvLn.close()
	}
	if p.stubLn != nil {
		p.stubLn.close()
	}
}

// tracedRun is what the traced run of a workload measured.
type tracedRun struct {
	ops        int
	layers     layerTimes
	clientNs   int64     // Σ client.op span durations
	respBytes  int64     // bytes the service answered
	firstEvent []float64 // µs, per stream
	directNs   int64     // Σ direct Server.Rerank call times
	directUp   int64     // union of guard spans during those calls
	tracedNs   int64     // Σ over ops of the op's fastest traced latency
	plainNs    int64     // the same through an unwrapped stack
	ckptMs     []float64 // durable: timed Server.Checkpoint calls
	replayMs   float64   // durable: timed Server.OpenDataDir on the written dir
	spanFile   string
	probe      layerProbe
}

// checkpointEvery is how many traced operations pass between two timed
// checkpoints of a durable workload.
const checkpointEvery = 50

// overheadReps is how many times the traced and the plain pass each run;
// an operation's latency in either is its fastest.
const overheadReps = 2

// httpPass runs ops, one client, sequentially, through a fresh in-process
// stack over its HTTP surface, with a span at every layer boundary when rec
// is set. It returns the stack (still open, for the caller to inspect and
// close) and every operation's result. A durable workload's traced pass
// (ckptMs non-nil) also takes a timed checkpoint every checkpointEvery ops.
func httpPass(sp spec, ops []op, rec *recorder, dataDir string, ckptMs *[]float64) (*inproc, []opResult, error) {
	p, err := buildInproc(sp, rec, dataDir)
	if err != nil {
		return nil, nil, err
	}
	results := make([]opResult, len(ops))
	for i, o := range ops {
		var t spanToken
		if rec != nil {
			rec.op.Store(int64(i))
			t = rec.begin("client.op")
		}
		results[i] = execOp(p.client, o, time.Now())
		if rec != nil {
			rec.end(t)
		}
		if results[i].err != nil {
			p.close()
			return nil, nil, fmt.Errorf("op %d: %w", i, results[i].err)
		}
		if ckptMs != nil && (i+1)%checkpointEvery == 0 {
			// Between operations, so inside no span.
			t0 := time.Now()
			if err := p.srv.Checkpoint(); err != nil {
				p.close()
				return nil, nil, fmt.Errorf("checkpoint: %w", err)
			}
			*ckptMs = append(*ckptMs, msOf(time.Since(t0)))
		}
	}
	return p, results, nil
}

// sumFastest adds up, over the operations, the smallest latency any of the
// passes saw for it.
func sumFastest(passes [][]opResult) int64 {
	var total int64
	for i := range passes[0] {
		best := passes[0][i].latency
		for _, p := range passes[1:] {
			best = min(best, p[i].latency)
		}
		total += int64(best)
	}
	return total
}

// runTraced executes the first quarter of the workload's sequence, single
// client and sequential, on identically built in-process stacks: through
// the HTTP surface with a span at every layer boundary, through an
// unwrapped stack (to price the tracing itself), and straight into
// Server.Rerank (to split codec from core).
func (e *env) runTraced(sp spec, seed int64, seconds int) (*tracedRun, error) {
	schema := dataset.BlueNileSchema()
	all := generate(sp, schema, seed, saltMeasured, sp.opCount(seconds))
	ops := all[:max(len(all)/4, 1)]
	tr := &tracedRun{ops: len(ops)}

	dir, err := scratchDir(e.buildDir, "traced-")
	if err != nil {
		return nil, err
	}
	// A durable workload persists in every pass, each into its own data
	// dir, so that the persister's hooks cost the same in all of them.
	dataDirFor := func(pass string) string {
		if !sp.durable {
			return ""
		}
		return filepath.Join(dir, pass)
	}

	// The traced pass proper: spans, layer probes, checkpoint and replay
	// timings come from this one.
	rec := newRecorder()
	var ckpt *[]float64
	if sp.durable {
		ckpt = &tr.ckptMs
	}
	p, results, err := httpPass(sp, ops, rec, dataDirFor("traced"), ckpt)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	for i, o := range ops {
		if err := checkOp(p.ora, o, results[i]); err != nil {
			p.close()
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
	}
	spans := rec.finish()
	tr.layers = aggregateLayers(spans)
	for _, s := range spans {
		if s.Name == "client.op" {
			tr.clientNs += s.dur()
		}
	}
	tr.respBytes, tr.firstEvent = p.handler.respBytes, p.handler.firstEvent
	tr.probe = probeLayers(sp, p.srv.Engine())
	if sp.durable {
		if err := p.srv.ClosePersistence(); err != nil {
			p.close()
			return nil, err
		}
		fresh := service.NewServerWithOptions(p.db, serverOptions(sp))
		t0 := time.Now()
		if err := fresh.OpenDataDir(dataDirFor("traced"), service.PersistConfig{}); err != nil {
			p.close()
			return nil, fmt.Errorf("replay data dir: %w", err)
		}
		tr.replayMs = msOf(time.Since(t0))
		if err := fresh.ClosePersistence(); err != nil {
			p.close()
			return nil, err
		}
	}
	p.close()
	if err := e.saveSpans(sp, seed, spans, tr); err != nil {
		return nil, err
	}

	// Tracing overhead: traced and plain passes alternate, and an
	// operation's latency in either kind is its fastest.
	traced, plain := [][]opResult{results}, [][]opResult{}
	for rep := 0; rep < overheadReps; rep++ {
		if rep > 0 {
			pass := fmt.Sprintf("traced%d", rep)
			if p, results, err = httpPass(sp, ops, newRecorder(), dataDirFor(pass), nil); err != nil {
				return nil, fmt.Errorf("%s pass: %w", pass, err)
			}
			p.close()
			traced = append(traced, results)
		}
		pass := fmt.Sprintf("plain%d", rep)
		if p, results, err = httpPass(sp, ops, nil, dataDirFor(pass), nil); err != nil {
			return nil, fmt.Errorf("%s pass: %w", pass, err)
		}
		p.close()
		plain = append(plain, results)
	}
	tr.tracedNs, tr.plainNs = sumFastest(traced), sumFastest(plain)

	// The direct pass: the same operations straight into the server.
	rec2 := newRecorder()
	if p, err = buildInproc(sp, rec2, dataDirFor("direct")); err != nil {
		return nil, err
	}
	for i, o := range ops {
		rec2.op.Store(int64(i))
		t0 := time.Now()
		if err := directOp(p.srv, o); err != nil {
			p.close()
			return nil, fmt.Errorf("direct op %d: %w", i, err)
		}
		tr.directNs += int64(time.Since(t0))
	}
	direct := aggregateLayers(rec2.finish())
	for l := layerIndex("guard.topk"); l < len(layerOrder); l++ {
		tr.directUp += direct.self[l]
	}
	p.close()
	return tr, nil
}

// checkOp verifies one executed operation against the oracle.
func checkOp(ora *oracle, o op, res opResult) error {
	if res.err != nil {
		return res.err
	}
	for j, a := range res.answers {
		if err := ora.check(o.Reqs[j], a); err != nil {
			return err
		}
	}
	return nil
}

// directOp feeds one operation to the server's exported entry points. A
// stream has no direct form; its request runs as a plain rerank, which does
// the same search.
func directOp(srv *service.Server, o op) error {
	if o.Kind == opBatch {
		for i, it := range srv.RerankBatch(service.BatchRequest{Requests: o.Reqs}).Items {
			if it.Status != http.StatusOK {
				return fmt.Errorf("batch item %d: status %d", i, it.Status)
			}
		}
		return nil
	}
	_, _, err := srv.Rerank(o.Reqs[0])
	return err
}

// saveSpans writes the span file and checks that the per-layer self times
// account for the client-side total.
func (e *env) saveSpans(sp spec, seed int64, spans []span, tr *tracedRun) error {
	dir := filepath.Join(e.buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr.spanFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
	if err := writeSpans(tr.spanFile, spans); err != nil {
		return err
	}
	var sum int64
	for _, ns := range tr.layers.self {
		sum += ns
	}
	if diff := float64(sum-tr.clientNs) / float64(tr.clientNs); diff > 0.05 || diff < -0.05 {
		return fmt.Errorf("per-layer self times sum to %d ns, client.op total is %d ns (%.1f%% apart)", sum, tr.clientNs, diff*100)
	}
	return nil
}

func usOf(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

// timings assembles the per-layer metrics the traced run provides.
func (tr *tracedRun) timings() map[string]float64 {
	lt := tr.layers
	at := layerIndex
	coreSelf := usOf(tr.directNs-tr.directUp) / float64(tr.ops)
	handleSelf := usOf(lt.self[at("service.handle")]) / float64(tr.ops)
	first := append([]float64(nil), tr.firstEvent...)
	sort.Float64s(first)
	ck := append([]float64(nil), tr.ckptMs...)
	sort.Float64s(ck)
	m := map[string]float64{
		"loadgen.client_us_per_op":  usOf(lt.self[at("client.op")]) / float64(tr.ops),
		"service.codec_us_per_op":   handleSelf - coreSelf,
		"service.resp_bytes_per_op": float64(tr.respBytes) / float64(tr.ops),
		"service.first_event_us":    percentile(first, 50),
		"core.self_us_per_op":       coreSelf,
		"core.probe_rounds_per_op":  float64(lt.rounds) / float64(tr.ops),
		"guard.self_us_per_probe":   ratio(usOf(lt.self[at("guard.topk")]), float64(lt.count[at("guard.topk")])),
		"remote.self_us_per_probe":  ratio(usOf(lt.self[at("remote.topk")]), float64(lt.count[at("remote.topk")])),
		"hidden.serve_us_per_probe": ratio(usOf(lt.self[at("hidden.serve")]), float64(lt.count[at("hidden.serve")])),
		"segment.checkpoint_ms_p50": percentile(ck, 50),
		"segment.replay_ms":         tr.replayMs,
		"trace.overhead_frac":       float64(tr.tracedNs)/float64(tr.plainNs) - 1,
		"index.dense1d_regions":     tr.probe.dense1dRegions,
		"index.dense1d_lookup_ns":   tr.probe.dense1dLookupNs,
		"history.min_ns_per_call":   tr.probe.histMinNs,
		"history.max_ns_per_call":   tr.probe.histMaxNs,
		"history.count_ns_per_call": tr.probe.histCountNs,
		"history.scan_ns_per_row":   tr.probe.histScanNsPerRow,
		"history.add_ns_per_tuple":  tr.probe.histAddNsPerTuple,
	}
	var sum int64
	for _, ns := range lt.self {
		sum += ns
	}
	m["trace.self_sum_frac"] = float64(sum) / float64(tr.clientNs)
	m["trace.stray_frac"] = float64(lt.stray) / float64(tr.clientNs)
	return m
}
