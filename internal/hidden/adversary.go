// Theorem-1 adversary (§3.1.2).
//
// The paper proves an n/k lower bound on worst-case query cost by describing
// an adaptive query-answering mechanism Q that stays consistent with *some*
// database of at most n tuples while forcing any reranking algorithm to
// issue at least n/k queries before the minimum tuple is pinned down.
// Adversary implements Q literally so tests can demonstrate the bound.

package hidden

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/query"
	"repro/internal/types"
)

// Adversary is an adaptive single-attribute hidden database implementing the
// query-processing mechanism from the proof of Theorem 1. The attribute
// domain is (v0, vInf). It materializes tuples lazily: whenever a query with
// lower bound v0 arrives it invents k fresh tuples inside ((v0+vq)/2, vq)
// and halves its private threshold vq, so no algorithm can certify the
// minimum until it has forced ~n/k rounds.
type Adversary struct {
	mu      sync.Mutex
	schema  *types.Schema
	k       int
	v0, vq  float64
	vInf    float64
	nextID  int
	maxN    int
	tuples  []types.Tuple // all tuples materialized so far
	counter Counter
}

// NewAdversary builds the adversary over domain (v0, vInf) with capacity n.
func NewAdversary(v0, vInf float64, n, k int) *Adversary {
	schema := types.MustSchema([]types.Attribute{{
		Name: "A", Kind: types.Ordinal,
		Domain: types.Domain{Min: v0, Max: vInf},
	}})
	return &Adversary{schema: schema, k: k, v0: v0, vq: vInf, vInf: vInf, maxN: n}
}

// TopK implements Database using the proof's mechanism.
func (a *Adversary) TopK(q query.Query) (Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counter.Add()
	iv, ok := q.Range(0)
	if !ok {
		iv = types.OpenInterval(a.v0, a.vInf)
	}
	lo := math.Max(iv.Lo, a.v0)

	if lo > a.v0 || (lo == a.v0 && !iv.LoOpen && lo != a.v0) {
		// Lower bound above v0: return only already-materialized
		// tuples in range and remember the probe.
		if lo < a.vq {
			a.vq = lo
		}
		return a.answerFromHistory(iv), nil
	}
	// Query touches v0: answer with an overflowing page of k tuples,
	// inventing fresh ones inside ((v0+hi)/2, hi) as needed, where hi is
	// the private threshold clamped to the query's own upper bound so
	// every answer stays consistent.
	var res Result
	for _, t := range a.tuples {
		if iv.Contains(t.Ord[0]) && len(res.Tuples) < a.k {
			res.Tuples = append(res.Tuples, t)
		}
	}
	hi := math.Min(a.vq, iv.Hi)
	if hi > a.v0 {
		newLo := (a.v0 + hi) / 2
		for i := 0; len(res.Tuples) < a.k && len(a.tuples) < a.maxN && i < a.k; i++ {
			v := newLo + (hi-newLo)*float64(i+1)/float64(a.k+1)
			t := types.Tuple{ID: a.nextID, Ord: []float64{v}}
			a.nextID++
			a.tuples = append(a.tuples, t)
			res.Tuples = append(res.Tuples, t)
		}
		a.vq = newLo
	}
	res.Overflow = len(a.tuples) < a.maxN || len(res.Tuples) == a.k
	return res, nil
}

func (a *Adversary) answerFromHistory(iv types.Interval) Result {
	var res Result
	for _, t := range a.tuples {
		if !iv.Contains(t.Ord[0]) {
			continue
		}
		if len(res.Tuples) == a.k {
			res.Overflow = true
			break
		}
		res.Tuples = append(res.Tuples, t)
	}
	return res
}

// K implements Database.
func (a *Adversary) K() int { return a.k }

// Schema implements Database.
func (a *Adversary) Schema() *types.Schema { return a.schema }

// QueryCount returns the number of queries answered.
func (a *Adversary) QueryCount() int64 { return a.counter.Count() }

// Materialized returns how many tuples the adversary has committed to.
func (a *Adversary) Materialized() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.tuples)
}

// CanStillHide reports whether the adversary could still legally insert a
// tuple smaller than every value revealed so far — i.e. whether any
// algorithm that stopped now would be wrong.
func (a *Adversary) CanStillHide() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.tuples) < a.maxN && a.vq > a.v0
}

// String describes the adversary state.
func (a *Adversary) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return fmt.Sprintf("adversary{n=%d/%d vq=%g queries=%d}", len(a.tuples), a.maxN, a.vq, a.counter.Count())
}
