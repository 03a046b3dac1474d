package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/types"
)

// benchFacts builds an engine holding n facts shaped like a serving
// workload's leftovers. Three quarters are complete: each a short run (1–10
// tuples, so complete at k=10) of a 20 000-tuple corpus ordered by A0,
// starting anywhere — nested and overlapping like 1D-RERANK's narrowing
// intervals — a third of them also bounded on A1 (MD boxes), a third under a
// categorical predicate; they cite the history rows of exactly the tuples
// their query matches. The last quarter are partial: runs of 11–40 tuples
// citing k of their rows, the overflow pages the wider steps of the same
// searches leave behind. It returns the corpus in A0 order and the queries of
// the complete and of the partial facts.
func benchFacts(b *testing.B, n int) (e *Engine, tuples []types.Tuple, complete, partial []query.Query) {
	b.Helper()
	const k = 10
	rng := rand.New(rand.NewSource(int64(n)))
	db, tuples := newTestDB(b, rng, 2, 20000, k, false, nil)
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Ord[0] < tuples[j].Ord[0] })
	e = NewEngine(db, Options{N: len(tuples), ProbeCacheSize: n})
	rows := e.History().AddRows(tuples)
	for held := 0; held < n; held = int(e.facts.entries.Load()) { // a duplicate key replaces its fact
		overflow := held%4 == 3
		run := 1 + rng.Intn(k)
		if overflow {
			run = k + 1 + rng.Intn(3*k)
		}
		at := rng.Intn(len(tuples) - run)
		q := query.New().WithRange(0, types.ClosedInterval(tuples[at].Ord[0], tuples[at+run-1].Ord[0]))
		switch held % 4 {
		case 1:
			q = q.WithRange(1, types.ClosedInterval(0, 100))
		case 2:
			q = q.WithCat("cat", []string{"x", "y", "z"}[rng.Intn(3)])
		}
		var cited []uint32
		for i := at; i < at+run && len(cited) < k; i++ {
			if q.Matches(tuples[i]) {
				cited = append(cited, rows[i])
			}
		}
		e.facts.learn(q.String(), q, cited, overflow, e.Epoch())
		switch {
		case int(e.facts.entries.Load()) == held:
		case overflow:
			partial = append(partial, q)
		default:
			complete = append(complete, q)
		}
	}
	return e, tuples, complete, partial
}

// BenchmarkProbeFacts prices the fact index's four lookup outcomes — the
// whole of what a probe costs when the upstream is not needed, canonical key
// included — at the default capacity and at a sixteenth of it:
//
//   - exact-hit: the probe is a held complete fact's own query; one
//     allocation, the result slice over shared row forms;
//   - partial-hit: the probe is a held overflow page's own query; the same
//     one allocation, k rows;
//   - contained-hit: the probe is the inner part of a held fact's range plus
//     a categorical predicate, so the fact's rows are filtered;
//   - miss: no fact contains the probe — half of them span 12 tuples, wider
//     than any fact (the running maximum stops the walk at once), half span
//     8 and merely fall between the facts around them (the walk visits the
//     overlapping candidates).
func BenchmarkProbeFacts(b *testing.B) {
	var sink hidden.Result
	for _, n := range []int{1024, 16384} {
		e, tuples, facts, partial := benchFacts(b, n)
		s := e.NewSession()
		rng := rand.New(rand.NewSource(7))
		span := func(width int) query.Query {
			at := rng.Intn(len(tuples) - width)
			return query.New().WithRange(0, types.ClosedInterval(tuples[at].Ord[0], tuples[at+width-1].Ord[0]))
		}
		var exact, contained, miss []query.Query
		for len(exact) < 512 {
			exact = append(exact, facts[rng.Intn(len(facts))])
		}
		for len(contained) < 512 {
			outer := facts[rng.Intn(len(facts))]
			iv, _ := outer.Range(0)
			in := outer.WithRange(0, types.ClosedInterval(iv.Lo, iv.Lo+(iv.Hi-iv.Lo)*0.75))
			if _, ok := in.Cat("cat"); !ok {
				in = in.WithCat("cat", "x")
			}
			if _, held := e.facts.byKey[in.String()]; !held {
				contained = append(contained, in)
			}
		}
		for len(miss) < 512 {
			q := span(12 - 4*(len(miss)%2))
			if _, ok, _ := s.lookup(q); !ok {
				miss = append(miss, q)
			}
		}
		for _, c := range []struct {
			name string
			qs   []query.Query
			hit  bool
		}{{"exact-hit", exact, true}, {"partial-hit", partial, true}, {"contained-hit", contained, true}, {"miss", miss, false}} {
			b.Run(fmt.Sprintf("%s/facts=%d", c.name, n), func(b *testing.B) {
				for _, q := range c.qs {
					if _, ok, _ := s.lookup(q); ok != c.hit {
						b.Fatalf("%s: lookup hit=%v, want %v", q, ok, c.hit)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink, _, _ = s.lookup(c.qs[i%len(c.qs)])
				}
			})
		}
		// The target that is a count, checked rather than hoped for: a hit on
		// the probe's own key allocates its result slice, nothing per tuple
		// and no key.
		for name, q := range map[string]query.Query{"exact": exact[0], "partial": partial[0]} {
			if got := testing.AllocsPerRun(200, func() { sink, _, _ = s.lookup(q) }); got > 1 {
				b.Fatalf("%s hit at %d facts: %.0f allocs/op, want ≤ 1", name, n, got)
			}
		}
	}
	_ = sink
}
