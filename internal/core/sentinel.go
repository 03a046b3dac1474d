// Sentinel drift detection: the cheap periodic check that keeps a
// namespace's knowledge epoch honest.
//
// Hidden databases change under us — rows are edited, re-ranked, inserted —
// and every piece of acquired knowledge (dense regions, probe-cache
// answers, history runs) silently describes the upstream as it WAS. Rather
// than expiring knowledge on a clock (wasteful when nothing changed) or
// never (wrong when something did), the engine re-issues a small FIXED set
// of sentinel probes each pass — one narrow TopK per ordinal attribute plus
// one unconstrained TopK — and digests the answers. Any digest differing
// from the previous pass is evidence the corpus moved, so the pass bumps
// the knowledge epoch; everything learned earlier becomes stale and is
// re-validated lazily on first touch (see session.go / coalesce.go).
//
// The probe set is deterministic and tiny (NumOrdinal+1 queries), so a pass
// costs O(attrs) upstream queries regardless of how much knowledge exists.
// Sentinel probes bypass the probe path's fact index on purpose: a cached
// answer can never witness drift.

package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/types"
)

// sentinelQueries builds the fixed probe set: for each ordinal attribute
// the lower half of its domain, plus one unconstrained query. The set is a
// pure function of the schema, so digests from different passes are
// comparable.
func (e *Engine) sentinelQueries() []query.Query {
	sch := e.db.Schema()
	qs := make([]query.Query, 0, sch.NumOrdinal()+1)
	for _, attr := range sch.OrdinalIndexes() {
		d := sch.Domain(attr)
		qs = append(qs, query.New().WithRange(attr, types.ClosedInterval(d.Min, (d.Min+d.Max)/2)))
	}
	qs = append(qs, query.New())
	return qs
}

// digestResult hashes a TopK answer's observable content: the overflow
// flag, and each tuple's ID and ordinal values in rank order. Two answers
// digest equal iff the upstream returned the same page.
func digestResult(res hidden.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if res.Overflow {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(res.Tuples)))
	for _, t := range res.Tuples {
		put(uint64(t.ID))
		for _, v := range t.Ord {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// SentinelPass issues the fixed sentinel probe set against the upstream,
// compares the answer digests with the previous pass, and bumps the
// knowledge epoch if any differ. The first pass only records baseline
// digests. Returns whether the epoch was bumped and how many upstream
// queries the pass issued (each counted in the engine ledger). On error the
// stored digests are left untouched, so a flaky pass cannot fake drift.
func (e *Engine) SentinelPass() (bumped bool, queries int64, err error) {
	qs := e.sentinelQueries()
	digests := make(map[string]uint64, len(qs))
	for _, q := range qs {
		res, err := e.db.TopK(q)
		if err != nil {
			return false, queries, err
		}
		queries++
		e.queries.Add(1)
		digests[q.String()] = digestResult(res)
	}
	e.sentMu.Lock()
	prev := e.sentDigests
	e.sentDigests = digests
	e.sentMu.Unlock()
	e.sentPasses.Add(1)
	e.sentLast.Store(time.Now().Unix())
	if prev == nil {
		return false, queries, nil // baseline pass: nothing to compare yet
	}
	for k, d := range digests {
		if pd, ok := prev[k]; !ok || pd != d {
			e.BumpEpoch()
			e.sentBumps.Add(1)
			return true, queries, nil
		}
	}
	return false, queries, nil
}
