package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/service"
	"repro/internal/types"
)

// Corpus constants: every workload runs against the same upstream, the
// synthetic Blue Nile catalogue the repo's own e2e recipe uses.
const (
	corpusSeed = 160205100
	corpusSize = 8000
)

type opKind string

const (
	op1D     opKind = "1d"
	opMD     opKind = "md"
	opBatch  opKind = "batch"
	opStream opKind = "stream"
)

// op is one fully materialised operation: every random choice is already
// made, so executing it needs no RNG and the sequence can be handed to any
// number of clients without changing it.
type op struct {
	Kind opKind
	Reqs []service.RerankRequest
}

// mix holds the relative weights of the four operation kinds.
type mix struct{ oneD, md, batch, stream int }

// spec describes one named workload. Everything that shapes the traffic is
// a constant here; the seed only drives the draws.
type spec struct {
	name string
	why  string

	mix       mix
	batchSize int
	windows   int     // size of the query-window universe
	zipfS     float64 // Zipf exponent of window popularity; 0 = uniform
	maxH      int     // h is drawn from [1, maxH]

	// opsPerSecond converts --seconds into the fixed operation count: it is
	// the rate seed code sustained on the seed machine, frozen so that both
	// sides of a later A/B execute the same number of requests.
	opsPerSecond float64

	clients int // closed-loop clients, or the in-flight cap of an open loop
	// openRate > 0 makes the workload an open loop: ops become due on a
	// seeded exponential schedule of this mean rate (per second).
	openRate float64

	stubDelay   time.Duration // fixed upstream latency per probe
	searchWidth int           // -search-parallelism; 0 leaves the default
	probeCache  int           // -probe-cache; 0 leaves the default (1024 entries)
	warmupOps   int           // ops replayed during set-up, from warmupSeed
	durable     bool          // -data-dir + kill -9 + restart
	refOps      int           // durable: reference-set size
	ckptEvery   time.Duration // durable: checkpoint interval
}

// rerankdArgs are the flags the workload sets beyond rerankd's defaults
// (the data dir, which is per run, is added by the caller).
func (s spec) rerankdArgs() []string {
	var args []string
	if s.searchWidth > 0 {
		args = append(args, "-search-parallelism", strconv.Itoa(s.searchWidth))
	}
	if s.probeCache > 0 {
		args = append(args, "-probe-cache", strconv.Itoa(s.probeCache))
	}
	return args
}

var specs = []spec{
	{
		name: "cold-spill",
		why:  "Knowledge grows from nothing and probe answers overflow the 1024-entry LRU, so every op pays upstream probes: remote, guard, core search and history insert do the work.",
		mix:  mix{4, 3, 2, 1}, batchSize: 4, windows: 64, zipfS: 1.2, maxH: 8,
		opsPerSecond: 500, clients: 2,
	},
	{
		name: "warm-fit",
		why:  "After a warm-up pass the working set fits the probe LRU, so the upstream is idle and codec, admission, probe keys, LRU hits and index/history lookups are the whole cost.",
		mix:  mix{4, 3, 2, 1}, batchSize: 4, windows: 8, zipfS: 0, maxH: 5,
		opsPerSecond: 1700, clients: 2, warmupOps: 2000,
	},
	{
		name: "rtt-open",
		why:  "Open loop at a fixed arrival rate against a 5 ms upstream: latency is sequential probe rounds times RTT, so CPU work is invisible and query-count or speculation changes show.",
		mix:  mix{2, 4, 1, 3}, batchSize: 4, windows: 64, zipfS: 1.2, maxH: 8,
		opsPerSecond: 170, clients: 16, openRate: 170, stubDelay: 5 * time.Millisecond,
		searchWidth: 4,
	},
	{
		name: "durable-fit",
		why:  "A data dir with 1 s checkpoints puts persister hooks and journal appends beside serving reads; kill -9 and restart then price recovery and the on-disk format.",
		mix:  mix{4, 3, 2, 1}, batchSize: 4, windows: 64, zipfS: 1.2, maxH: 8,
		opsPerSecond: 850, clients: 2, probeCache: 16384,
		durable: true, refOps: 100, ckptEvery: time.Second,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// opCount is the length of the measured sequence of one round, for a run of
// the given nominal length: the run's operations split evenly over its
// rounds.
func (s spec) opCount(seconds int) int {
	n := int(math.Round(s.opsPerSecond * float64(seconds) / e2eRounds))
	if n < 40 {
		n = 40
	}
	return n
}

// Sequence salts keep the measured, warm-up and reference sequences of one
// (workload, seed) pair independent of each other.
const (
	saltMeasured = 0
	saltWarmup   = 1
	saltRef      = 2
	saltArrivals = 3
)

// warmupSeed seeds every warm-up pass, whatever the run's seed.
const warmupSeed = 20160205

func seqSeed(seed int64, salt int) int64 { return seed*1000003 + int64(salt)*7919 }

// window is one element of the query-window universe: a contiguous range
// over one ordinal attribute.
type window struct {
	Attr   string
	Lo, Hi float64
}

// ordinalAttrs lists the schema's ordinal attributes with a non-empty
// domain, in schema order.
func ordinalAttrs(schema *types.Schema) []types.Attribute {
	var out []types.Attribute
	for _, i := range schema.OrdinalIndexes() {
		if a := schema.Attr(i); a.Domain.Max > a.Domain.Min {
			out = append(out, a)
		}
	}
	return out
}

// buildWindows tiles n windows across the ordinal attributes the way
// cmd/loadgen does: window i covers slot i/A of attribute i%A's domain, the
// domain split into equal slots. Window 0 is the Zipf mode.
func buildWindows(ordinals []types.Attribute, n int) []window {
	a := len(ordinals)
	slots := (n + a - 1) / a
	out := make([]window, n)
	for i := range out {
		at := ordinals[i%a]
		width := (at.Domain.Max - at.Domain.Min) / float64(slots)
		lo := at.Domain.Min + float64(i/a)*width
		hi := lo + width
		if hi > at.Domain.Max {
			hi = at.Domain.Max
		}
		out[i] = window{Attr: at.Name, Lo: lo, Hi: hi}
	}
	return out
}

// quota splits n draws over weights as evenly as whole numbers allow
// (largest remainder, ties to the lower index): entry i gets about
// n·weights[i]/Σweights.
func quota(weights []float64, n int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]int, len(weights))
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / sum
		out[i] = int(exact)
		left -= out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < left; k++ {
		out[rems[k].i]++
	}
	return out
}

// reqType is one distinct request of a workload's universe.
type reqType struct {
	window int
	oneD   bool
	desc   bool // 1D: descending order
	other  int  // MD: index into ordinals of the second ranked attribute
	h      int
}

// requestPool returns n requests of one kind (1D or MD), in an order drawn
// from rng. How many fall on each window is fixed by the workload's
// popularity law (Zipfian or uniform); within a window the requests cycle
// through a shuffled list of its variants — direction or second attribute,
// and h — so each variant is asked about equally often.
func requestPool(s spec, ordinals []types.Attribute, universe []window, oneD bool, n int, rng *rand.Rand) []reqType {
	weights := make([]float64, len(universe))
	for w := range universe {
		weights[w] = 1
		if s.zipfS > 0 {
			weights[w] = math.Pow(float64(1+w), -s.zipfS) // rand.Zipf's law with v = 1
		}
	}
	pool := make([]reqType, 0, n)
	for w, c := range quota(weights, n) {
		var variants []reqType
		for h := 1; h <= s.maxH; h++ {
			if oneD {
				variants = append(variants,
					reqType{window: w, oneD: true, h: h},
					reqType{window: w, oneD: true, desc: true, h: h})
				continue
			}
			for o, a := range ordinals {
				if a.Name != universe[w].Attr {
					variants = append(variants, reqType{window: w, other: o, h: h})
				}
			}
		}
		rng.Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })
		for i := 0; i < c; i++ {
			pool = append(pool, variants[i%len(variants)])
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// generate returns the n-operation sequence of (spec, seed, salt). It is a
// pure function of its arguments, so it does not depend on how many clients
// consume it.
//
// The sampling is stratified: how many operations of each kind a sequence
// of length n holds, and how many requests fall on each window, is fixed by
// the workload's distribution; the seed decides the order, the rankings and
// h within a window, and how requests fall into batches. Two seeds
// therefore ask for nearly the same total work along different knowledge
// trajectories, which keeps the spread between seeds below the effects the
// benchmark is meant to resolve.
func generate(s spec, schema *types.Schema, seed int64, salt, n int) []op {
	rng := rand.New(rand.NewSource(seqSeed(seed, salt)))
	ordinals := ordinalAttrs(schema)
	universe := buildWindows(ordinals, s.windows)

	kindNames := []opKind{op1D, opMD, opBatch, opStream}
	counts := quota([]float64{float64(s.mix.oneD), float64(s.mix.md), float64(s.mix.batch), float64(s.mix.stream)}, n)
	kinds := make([]opKind, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			kinds = append(kinds, kindNames[i])
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	// Batch items are half 1D, half MD; streams are MD.
	items := counts[2] * s.batchSize
	subOneD := make([]bool, items)
	for i := 0; i < items/2; i++ {
		subOneD[i] = true
	}
	rng.Shuffle(items, func(i, j int) { subOneD[i], subOneD[j] = subOneD[j], subOneD[i] })
	pool1 := requestPool(s, ordinals, universe, true, counts[0]+items/2, rng)
	poolMD := requestPool(s, ordinals, universe, false, counts[1]+counts[3]+items-items/2, rng)

	next := func(oneD bool) service.RerankRequest {
		var t reqType
		if oneD {
			t, pool1 = pool1[0], pool1[1:]
		} else {
			t, poolMD = poolMD[0], poolMD[1:]
		}
		w := universe[t.window]
		req := service.RerankRequest{H: t.h}
		if t.oneD {
			req.Ranking = service.RankingSpec{Kind: "single", Attrs: []string{w.Attr}, Desc: t.desc}
		} else {
			req.Ranking = service.RankingSpec{Kind: "linear", Attrs: []string{w.Attr, ordinals[t.other].Name}, Weights: []float64{1, 1}}
		}
		lo, hi := w.Lo, w.Hi
		req.Ranges = []service.RangeSpec{{Attr: w.Attr, Min: &lo, Max: &hi}}
		return req
	}
	ops := make([]op, n)
	for i, kind := range kinds {
		o := op{Kind: kind}
		switch kind {
		case opBatch:
			for j := 0; j < s.batchSize; j++ {
				o.Reqs = append(o.Reqs, next(subOneD[0]))
				subOneD = subOneD[1:]
			}
		case op1D:
			o.Reqs = []service.RerankRequest{next(true)}
		default:
			o.Reqs = []service.RerankRequest{next(false)}
		}
		ops[i] = o
	}
	return ops
}

// arrivals returns the due time of each of n open-loop operations, as an
// offset from the start of the measured phase: the gaps of a Poisson
// process, drawn from their own seeded stream and scaled so that the last
// operation is due at exactly n/rate. Every seed thus offers the same load
// over the same time, in different bursts.
func arrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seqSeed(seed, saltArrivals)))
	at := make([]float64, n)
	var t float64
	for i := range at {
		t += rng.ExpFloat64()
		at[i] = t
	}
	scale := float64(n) / rate / t
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(at[i] * scale * float64(time.Second))
	}
	return out
}

// requestKey names a request for the oracle's memo: two requests with the
// same key have the same correct answer up to h.
func requestKey(r service.RerankRequest) string {
	rs := r.Ranges[0]
	return fmt.Sprintf("%s|%v|%v|%s|%v|%v", rs.Attr, *rs.Min, *rs.Max, r.Ranking.Kind, r.Ranking.Attrs, r.Ranking.Desc)
}
