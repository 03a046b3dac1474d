// Command loadgen is a closed-loop load generator for the reranking
// service: the tool both humans and CI use to pin rerankd's serving
// behavior under concurrent traffic.
//
// Each of -clients workers runs a closed loop against -url for -duration:
// pull the next operation from a single shared workload sequence (so the
// request stream is a function of -seed alone, never of worker count),
// issue it, and record the outcome. Operations are drawn from the weighted
// -mix (1d = single-attribute rerank, md = two-attribute linear rerank,
// batch = one batch request of -batch-size sub-requests, stream = one
// stream request drained to the final event), all against the -upstream
// namespace's routes. Requests shed by
// admission control (429/503) count as "shed", not errors — backpressure is
// correct behavior under overload, and the shed rate is part of the report.
//
// Every request targets one window out of a discrete universe of -windows
// contiguous range windows tiled across the schema's ordinal attributes.
// Window popularity follows a Zipfian distribution with exponent -zipf-s —
// the skewed access pattern hidden-database front ends actually see, and
// the regime where background knowledge acquisition pays off — or a uniform
// distribution with -uniform. The report includes per-window hit skew
// (top-1/top-3 share and the hottest windows).
//
// -trace-record writes the generated operation sequence as JSON lines;
// -trace-replay plays such a file back bit-identically: workers consume the
// recorded operations sequentially from a shared cursor, so two replays of
// the same trace issue exactly the same requests regardless of -clients.
//
// The report prints per-kind and total counts, throughput, p50/p95/p99
// latency, shed rate, and upstream queries per request (the paper's cost
// measure, straight from the service's ledgers); streams additionally
// report time-to-first-tuple. -report writes the same numbers as JSON (the
// BENCH_e2e artifact in CI).
//
// Usage:
//
//	loadgen -url http://localhost:8080 -clients 8 -duration 10s \
//	        -mix "1d=4,md=3,batch=2,stream=1" -zipf-s 1.2 -windows 64 \
//	        -report report.json
//
// Against a federated rerankd, -upstream targets one namespace (its schema,
// its /v1/upstreams/{ns}/... routes); it defaults to "default", the name
// rerankd gives an in-process dataset.
//
// Exit status: 0 when every request either succeeded or was shed; 1 when
// hard errors occurred (or the optional -min-ops floor was missed).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

type opKind string

const (
	op1D     opKind = "1d"
	opMD     opKind = "md"
	opBatch  opKind = "batch"
	opStream opKind = "stream"
)

// opSpec is one fully materialized operation: every random choice (kind,
// windows, ranking, h, batch composition) is already made, so executing a
// spec needs no RNG and a recorded spec replays bit-identically. Windows
// holds the universe index behind each request, for skew accounting.
type opSpec struct {
	Kind    opKind                  `json:"kind"`
	Reqs    []service.RerankRequest `json:"reqs"`
	Windows []int                   `json:"windows"`
}

// specSource yields the next operation to issue. Both implementations are
// safe for concurrent workers, and neither depends on which worker calls:
// the request stream is worker-count-independent by construction.
type specSource interface {
	next() (opSpec, bool)
}

// window is one element of the discrete query-window universe: a contiguous
// range over one ordinal attribute.
type window struct {
	Attr   string
	Lo, Hi float64
}

// buildWindows tiles n windows across the ordinal attributes: window i
// covers slot i/A of attribute i%A's domain, the domain split into equal
// slots. Window 0 is the Zipf mode — the hottest window of the run.
func buildWindows(ordinals []service.AttrSpec, n int) []window {
	a := len(ordinals)
	slots := (n + a - 1) / a
	out := make([]window, n)
	for i := range out {
		at := ordinals[i%a]
		width := (at.Max - at.Min) / float64(slots)
		lo := at.Min + float64(i/a)*width
		hi := lo + width
		if hi > at.Max {
			hi = at.Max
		}
		out[i] = window{Attr: at.Name, Lo: lo, Hi: hi}
	}
	return out
}

// workload generates the shared operation sequence. One mutex-guarded RNG
// drives every choice, so the sequence is a pure function of the seed:
// workers pulling from it concurrently interleave execution, not
// generation. (An earlier version seeded an RNG per worker, which made the
// request stream — and any recorded trace — depend on -clients.)
type workload struct {
	mu        sync.Mutex
	rng       *rand.Rand
	zipf      *rand.Zipf // nil in -uniform mode
	mix       *weightedMix
	universe  []window
	ordinals  []service.AttrSpec
	h         int
	batchSize int
	rec       *json.Encoder // non-nil when -trace-record is set
}

func newWorkload(seed int64, zipfS float64, uniform bool, mix *weightedMix,
	universe []window, ordinals []service.AttrSpec, h, batchSize int) *workload {
	g := &workload{
		rng:      rand.New(rand.NewSource(seed)),
		mix:      mix,
		universe: universe,
		ordinals: ordinals, h: h, batchSize: batchSize,
	}
	if !uniform {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(universe)-1))
	}
	return g
}

func (g *workload) next() (opSpec, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	kind := g.mix.pick(g.rng)
	spec := opSpec{Kind: kind}
	n := 1
	if kind == opBatch {
		n = g.batchSize
	}
	for i := 0; i < n; i++ {
		rk := kind
		switch kind {
		case opBatch:
			rk = op1D
			if g.rng.Intn(2) == 0 {
				rk = opMD
			}
		case opStream:
			rk = opMD
		}
		wi := g.pickWindow()
		spec.Reqs = append(spec.Reqs, g.windowRequest(rk, wi))
		spec.Windows = append(spec.Windows, wi)
	}
	// Recording happens under the generation lock so the trace order IS the
	// generation order.
	if g.rec != nil {
		if err := g.rec.Encode(spec); err != nil {
			log.Fatalf("loadgen: record trace: %v", err)
		}
	}
	return spec, true
}

func (g *workload) pickWindow() int {
	if g.zipf == nil {
		return g.rng.Intn(len(g.universe))
	}
	return int(g.zipf.Uint64())
}

// windowRequest builds one rerank request over the given universe window.
func (g *workload) windowRequest(kind opKind, wi int) service.RerankRequest {
	w := g.universe[wi]
	req := service.RerankRequest{H: 1 + g.rng.Intn(g.h)}
	if kind == op1D {
		req.Ranking = service.RankingSpec{Kind: "single", Attrs: []string{w.Attr}, Desc: g.rng.Intn(2) == 0}
	} else {
		b := g.ordinals[g.rng.Intn(len(g.ordinals))]
		for b.Name == w.Attr {
			b = g.ordinals[g.rng.Intn(len(g.ordinals))]
		}
		req.Ranking = service.RankingSpec{
			Kind: "linear", Attrs: []string{w.Attr, b.Name}, Weights: []float64{1, 1},
		}
	}
	lo, hi := w.Lo, w.Hi
	req.Ranges = []service.RangeSpec{{Attr: w.Attr, Min: &lo, Max: &hi}}
	return req
}

// traceSource replays a recorded trace: workers consume specs sequentially
// from a shared cursor, each spec exactly once, in trace order. The stream
// ends when the trace does.
type traceSource struct {
	specs []opSpec
	idx   atomic.Int64
}

func (t *traceSource) next() (opSpec, bool) {
	i := t.idx.Add(1) - 1
	if i >= int64(len(t.specs)) {
		return opSpec{}, false
	}
	return t.specs[i], true
}

// loadTrace reads a -trace-record file back into memory.
func loadTrace(path string) ([]opSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var specs []opSpec
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s opSpec
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("trace %s, spec %d: %w", path, len(specs), err)
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("trace %s holds no operations", path)
	}
	return specs, nil
}

// sample is one completed operation.
type sample struct {
	kind      opKind
	latency   time.Duration
	firstTup  time.Duration // streams only; 0 when no tuple arrived
	upstreamQ int64
	shed      bool
	err       bool
	windows   []int
}

func main() {
	var (
		url         = flag.String("url", "http://localhost:8080", "rerankd base URL")
		upstream    = flag.String("upstream", service.DefaultUpstream, "upstream namespace to target")
		clients     = flag.Int("clients", 8, "concurrent closed-loop workers")
		duration    = flag.Duration("duration", 10*time.Second, "run length")
		mixSpec     = flag.String("mix", "1d=4,md=3,batch=2,stream=1", "weighted operation mix (kind=weight,...)")
		h           = flag.Int("h", 8, "answers requested per rerank")
		batchSize   = flag.Int("batch-size", 4, "sub-requests per batch operation")
		seed        = flag.Int64("seed", 1, "workload seed")
		zipfS       = flag.Float64("zipf-s", 1.2, "Zipf exponent of the window popularity distribution (must be > 1)")
		windowsN    = flag.Int("windows", 64, "size of the discrete query-window universe")
		uniform     = flag.Bool("uniform", false, "pick windows uniformly instead of Zipf")
		traceRecord = flag.String("trace-record", "", "record the generated operation sequence to this file (JSON lines)")
		traceReplay = flag.String("trace-replay", "", "replay a recorded trace instead of generating (ignores -mix/-zipf-s/-windows/-h/-batch-size/-seed)")
		report      = flag.String("report", "", "write the JSON report to this file")
		minOps      = flag.Int64("min-ops", 0, "fail unless at least this many operations completed")
	)
	flag.Parse()

	if *traceReplay != "" && *traceRecord != "" {
		log.Fatal("loadgen: -trace-record and -trace-replay are mutually exclusive")
	}
	schema, err := service.NewClientWith(*url, service.WithUpstream(*upstream)).Schema()
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	ordinals := ordinalAttrs(schema)
	if len(ordinals) < 2 {
		log.Fatalf("loadgen: schema exposes %d ordinal attributes, need ≥ 2", len(ordinals))
	}

	var src specSource
	var recFile *os.File
	var recBuf *bufio.Writer
	reportZipf := 0.0
	if *traceReplay != "" {
		specs, err := loadTrace(*traceReplay)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		src = &traceSource{specs: specs}
		log.Printf("loadgen: replaying %d recorded operations from %s", len(specs), *traceReplay)
	} else {
		mix, err := parseMix(*mixSpec)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		if *windowsN < 1 {
			log.Fatalf("loadgen: -windows %d, need ≥ 1", *windowsN)
		}
		if !*uniform && *zipfS <= 1 {
			log.Fatalf("loadgen: -zipf-s %v, need > 1 (or -uniform)", *zipfS)
		}
		gen := newWorkload(*seed, *zipfS, *uniform, mix, buildWindows(ordinals, *windowsN), ordinals, *h, *batchSize)
		if !*uniform {
			reportZipf = *zipfS
		}
		if *traceRecord != "" {
			recFile, err = os.Create(*traceRecord)
			if err != nil {
				log.Fatalf("loadgen: %v", err)
			}
			recBuf = bufio.NewWriter(recFile)
			gen.rec = json.NewEncoder(recBuf)
		}
		src = gen
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
	)
	deadline := time.Now().Add(*duration)
	start := time.Now()
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := service.NewClientWith(*url,
				service.WithUpstream(*upstream),
				service.WithTimeout(2*time.Minute),
				service.WithClientID(fmt.Sprintf("loadgen-%d", w)))
			var local []sample
			for time.Now().Before(deadline) {
				spec, ok := src.next()
				if !ok {
					break // trace exhausted
				}
				local = append(local, runOp(client, spec))
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if recBuf != nil {
		if err := recBuf.Flush(); err != nil {
			log.Fatalf("loadgen: flush trace: %v", err)
		}
		if err := recFile.Close(); err != nil {
			log.Fatalf("loadgen: close trace: %v", err)
		}
		log.Printf("loadgen: trace recorded to %s", *traceRecord)
	}

	rep := buildReport(samples, elapsed, *clients, *mixSpec)
	rep.Upstream = *upstream
	rep.ZipfS = reportZipf
	if *traceReplay == "" {
		rep.Windows = *windowsN
	}
	printReport(rep)
	if *report != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("loadgen: marshal report: %v", err)
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(*report, raw, 0o644); err != nil {
			log.Fatalf("loadgen: write report: %v", err)
		}
	}
	if rep.Total.Errors > 0 {
		log.Fatalf("loadgen: %d hard errors", rep.Total.Errors)
	}
	if rep.Total.Count < *minOps {
		log.Fatalf("loadgen: only %d operations completed, floor is %d", rep.Total.Count, *minOps)
	}
}

// runOp executes one materialized operation and classifies the result.
func runOp(client *service.Client, spec opSpec) sample {
	s := sample{kind: spec.Kind, windows: spec.Windows}
	begin := time.Now()
	var err error
	switch spec.Kind {
	case op1D, opMD:
		var resp *service.RerankResponse
		resp, err = client.Rerank(spec.Reqs[0])
		if resp != nil {
			s.upstreamQ = resp.QueriesIssued
		}
	case opBatch:
		var resp *service.BatchResponse
		resp, err = client.RerankBatch(service.BatchRequest{Requests: spec.Reqs})
		if resp != nil {
			s.upstreamQ = resp.QueriesIssued
		}
	case opStream:
		var final *service.StreamEvent
		final, err = client.RerankStream(spec.Reqs[0], func(ev service.StreamEvent) bool {
			if ev.Tuple != nil && s.firstTup == 0 {
				s.firstTup = time.Since(begin)
			}
			return true
		})
		if final != nil {
			s.upstreamQ = final.QueriesIssued
		}
	}
	s.latency = time.Since(begin)
	if err != nil {
		var se *service.StatusError
		if errors.As(err, &se) &&
			(se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable) {
			s.shed = true
		} else {
			s.err = true
			log.Printf("loadgen: %s: %v", spec.Kind, err)
		}
	}
	return s
}

// weightedMix picks operation kinds proportionally to their weights.
type weightedMix struct {
	kinds   []opKind
	weights []int
	total   int
}

func parseMix(spec string) (*weightedMix, error) {
	m := &weightedMix{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q (want kind=weight)", part)
		}
		kind := opKind(kv[0])
		switch kind {
		case op1D, opMD, opBatch, opStream:
		default:
			return nil, fmt.Errorf("unknown mix kind %q (want 1d, md, batch, stream)", kv[0])
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", kv[1])
		}
		if w == 0 {
			continue
		}
		m.kinds = append(m.kinds, kind)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total == 0 {
		return nil, fmt.Errorf("mix %q selects nothing", spec)
	}
	return m, nil
}

func (m *weightedMix) pick(rng *rand.Rand) opKind {
	n := rng.Intn(m.total)
	for i, w := range m.weights {
		if n < w {
			return m.kinds[i]
		}
		n -= w
	}
	return m.kinds[len(m.kinds)-1]
}

func ordinalAttrs(sr *service.SchemaResponse) []service.AttrSpec {
	var out []service.AttrSpec
	for _, a := range sr.Attrs {
		if a.Kind == "ordinal" && a.Max > a.Min {
			out = append(out, a)
		}
	}
	return out
}

// OpStats aggregates one operation kind (or the total row) for the report.
type OpStats struct {
	Count     int64   `json:"count"`
	OK        int64   `json:"ok"`
	Shed      int64   `json:"shed"` // 429/503 admission rejections
	Errors    int64   `json:"errors"`
	ShedRate  float64 `json:"shedRate"`
	OpsPerSec float64 `json:"opsPerSec"`
	P50Ms     float64 `json:"p50Ms"`
	P95Ms     float64 `json:"p95Ms"`
	P99Ms     float64 `json:"p99Ms"`
	// UpstreamQueries is the summed per-request cost ledger;
	// UpstreamPerOp averages it over successful operations.
	UpstreamQueries int64   `json:"upstreamQueries"`
	UpstreamPerOp   float64 `json:"upstreamPerOp"`
	// FirstTupleP50Ms is the median time to the first streamed tuple
	// (streams only).
	FirstTupleP50Ms float64 `json:"firstTupleP50Ms,omitempty"`
}

// WindowHit is one window's slice of the issued requests.
type WindowHit struct {
	Window int     `json:"window"`
	Hits   int64   `json:"hits"`
	Share  float64 `json:"share"`
}

// WindowSkew summarizes how concentrated the run's window accesses were —
// the knob that decides whether background acquisition has anything hot to
// warm.
type WindowSkew struct {
	// TotalHits counts every issued request (batch sub-requests included).
	TotalHits int64 `json:"totalHits"`
	// DistinctWindows is how many universe windows were touched at all.
	DistinctWindows int `json:"distinctWindows"`
	// Top1Share / Top3Share are the hit fractions of the hottest one and
	// three windows.
	Top1Share float64 `json:"top1Share"`
	Top3Share float64 `json:"top3Share"`
	// Hot lists the five hottest windows.
	Hot []WindowHit `json:"hot"`
}

// Report is the loadgen JSON output.
type Report struct {
	Clients int    `json:"clients"`
	Mix     string `json:"mix"`
	// Upstream is the namespace the run targeted ("" = the default).
	Upstream string `json:"upstream,omitempty"`
	// Windows and ZipfS echo the workload shape (both 0 on trace replay;
	// ZipfS 0 also in -uniform mode).
	Windows         int                `json:"windows,omitempty"`
	ZipfS           float64            `json:"zipfS,omitempty"`
	DurationSeconds float64            `json:"durationSeconds"`
	Total           OpStats            `json:"total"`
	Skew            *WindowSkew        `json:"windowSkew,omitempty"`
	PerKind         map[string]OpStats `json:"perKind"`
}

func buildReport(samples []sample, elapsed time.Duration, clients int, mix string) *Report {
	rep := &Report{
		Clients:         clients,
		Mix:             mix,
		DurationSeconds: elapsed.Seconds(),
		PerKind:         map[string]OpStats{},
	}
	byKind := map[opKind][]sample{}
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s)
	}
	rep.Total = aggregate(samples, elapsed)
	for kind, ss := range byKind {
		rep.PerKind[string(kind)] = aggregate(ss, elapsed)
	}
	rep.Skew = windowSkew(samples)
	return rep
}

// windowSkew tallies per-window hits across every issued request.
func windowSkew(samples []sample) *WindowSkew {
	hits := map[int]int64{}
	var total int64
	for _, s := range samples {
		for _, w := range s.windows {
			hits[w]++
			total++
		}
	}
	if total == 0 {
		return nil
	}
	all := make([]WindowHit, 0, len(hits))
	for w, n := range hits {
		all = append(all, WindowHit{Window: w, Hits: n, Share: float64(n) / float64(total)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Hits != all[j].Hits {
			return all[i].Hits > all[j].Hits
		}
		return all[i].Window < all[j].Window
	})
	sk := &WindowSkew{TotalHits: total, DistinctWindows: len(all)}
	for i, h := range all {
		if i < 1 {
			sk.Top1Share += h.Share
		}
		if i < 3 {
			sk.Top3Share += h.Share
		}
		if i < 5 {
			sk.Hot = append(sk.Hot, h)
		}
	}
	return sk
}

func aggregate(ss []sample, elapsed time.Duration) OpStats {
	var st OpStats
	var lats, firsts []float64
	for _, s := range ss {
		st.Count++
		switch {
		case s.err:
			st.Errors++
		case s.shed:
			st.Shed++
		default:
			st.OK++
			st.UpstreamQueries += s.upstreamQ
			lats = append(lats, float64(s.latency)/float64(time.Millisecond))
			if s.firstTup > 0 {
				firsts = append(firsts, float64(s.firstTup)/float64(time.Millisecond))
			}
		}
	}
	if st.Count > 0 {
		st.ShedRate = float64(st.Shed) / float64(st.Count)
	}
	if st.OK > 0 {
		st.UpstreamPerOp = float64(st.UpstreamQueries) / float64(st.OK)
	}
	if elapsed > 0 {
		st.OpsPerSec = float64(st.Count) / elapsed.Seconds()
	}
	st.P50Ms, st.P95Ms, st.P99Ms = percentile(lats, 50), percentile(lats, 95), percentile(lats, 99)
	st.FirstTupleP50Ms = percentile(firsts, 50)
	return st
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	idx := int(p / 100 * float64(len(v)-1))
	return v[idx]
}

func printReport(rep *Report) {
	fmt.Printf("loadgen: %d clients, mix %s, %.1fs\n", rep.Clients, rep.Mix, rep.DurationSeconds)
	fmt.Printf("%-8s %8s %8s %6s %6s %9s %9s %9s %9s %11s\n",
		"kind", "ops", "ops/s", "shed", "errs", "p50 ms", "p95 ms", "p99 ms", "firstT ms", "upstrQ/op")
	row := func(name string, st OpStats) {
		first := "-"
		if st.FirstTupleP50Ms > 0 {
			first = fmt.Sprintf("%.1f", st.FirstTupleP50Ms)
		}
		fmt.Printf("%-8s %8d %8.1f %6d %6d %9.1f %9.1f %9.1f %9s %11.1f\n",
			name, st.Count, st.OpsPerSec, st.Shed, st.Errors,
			st.P50Ms, st.P95Ms, st.P99Ms, first, st.UpstreamPerOp)
	}
	kinds := make([]string, 0, len(rep.PerKind))
	for k := range rep.PerKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		row(k, rep.PerKind[k])
	}
	row("total", rep.Total)
	if sk := rep.Skew; sk != nil {
		fmt.Printf("windows: %d distinct, top-1 %.1f%% / top-3 %.1f%% of %d hits\n",
			sk.DistinctWindows, sk.Top1Share*100, sk.Top3Share*100, sk.TotalHits)
	}
}
