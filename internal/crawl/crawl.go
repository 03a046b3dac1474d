// Package crawl implements a complete crawler for hidden databases in the
// style of Sheng et al. [15], the baseline §1 of the paper argues against:
// retrieve *every* tuple matching a query through the top-k interface by
// recursively splitting overflowing queries into disjoint sub-queries.
//
// Besides serving as the experimental baseline, the crawler is the workhorse
// behind the on-the-fly dense indexes (Algorithms 4 and 6): dense regions
// are small, so crawling them costs O(s/k) queries and the result is stored
// for all future user queries.
//
// # Probe routing and cost accounting
//
// By default every probe goes straight to the Database. Callers that sit
// behind a probe path of their own (the engine's sessions) instead supply
// Options.Probe, which answers each sub-query and charges whatever reached
// the upstream itself. The crawler counts only Queries — probes attempted,
// the budget measure, stable regardless of cache state. The counter is
// atomic: progress may be read while a crawl runs.
package crawl

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/types"
)

// ErrBudget is returned when the crawl exceeds its query budget.
var ErrBudget = errors.New("crawl: query budget exhausted")

// ErrUnsplittable is returned when an overflowing query cannot be split any
// further: more than k tuples share identical values on every splittable
// attribute, which no conjunctive-query interface can separate.
var ErrUnsplittable = errors.New("crawl: overflowing region is unsplittable (more than k identical tuples)")

// Probe answers one sub-query on behalf of the crawler.
type Probe func(q query.Query) (hidden.Result, error)

// Options configure a crawl.
type Options struct {
	// MaxQueries bounds the number of probe attempts (0 = unlimited). The
	// budget is charged per attempt, before any coalescing, so it is
	// stable regardless of cache state.
	MaxQueries int64
	// Probe, when non-nil, replaces direct Database.TopK calls — the hook
	// through which the engine routes crawl probes into its own probe path
	// so concurrent crawls of overlapping regions dedup at probe
	// granularity. When nil, probes go straight to the database.
	Probe Probe
}

// Crawler retrieves complete query answers through a top-k interface,
// splitting on the schema's ordinal attributes.
type Crawler struct {
	db   hidden.Database
	opts Options

	queries atomic.Int64 // probe attempts (budget measure)
}

// New builds a crawler over db.
func New(db hidden.Database, opts Options) *Crawler {
	if opts.Probe == nil {
		opts.Probe = db.TopK
	}
	return &Crawler{db: db, opts: opts}
}

// Queries returns the number of probes attempted so far — the number that
// would have reached the database without a probe path of the caller's own.
// Safe to read while a crawl is running.
func (c *Crawler) Queries() int64 { return c.queries.Load() }

// All retrieves every tuple matching q. The result is deduplicated by ID and
// sorted by ID for determinism.
func (c *Crawler) All(q query.Query) ([]types.Tuple, error) {
	seen := make(map[int]types.Tuple)
	if err := c.crawl(q, seen); err != nil {
		return nil, err
	}
	out := make([]types.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (c *Crawler) crawl(root query.Query, seen map[int]types.Tuple) error {
	work := []query.Query{root}
	for len(work) > 0 {
		q := work[len(work)-1]
		work = work[:len(work)-1]
		if q.Empty() {
			continue
		}
		if c.opts.MaxQueries > 0 && c.queries.Load() >= c.opts.MaxQueries {
			return ErrBudget
		}
		c.queries.Add(1)
		res, err := c.opts.Probe(q)
		if err != nil {
			return err
		}
		for _, t := range res.Tuples {
			seen[t.ID] = t
		}
		if !res.Overflow {
			continue
		}
		parts, err := c.split(q, res.Tuples)
		if err != nil {
			return fmt.Errorf("%w (query %v)", err, q)
		}
		work = append(work, parts...)
	}
	return nil
}

// split partitions q into disjoint sub-queries. It prefers an ordinal
// attribute on which the returned tuples take at least two distinct values
// (binary range split at the median); failing that it enumerates the values
// of a free categorical attribute (conjunctive point predicates, §2.1).
func (c *Crawler) split(q query.Query, returned []types.Tuple) ([]query.Query, error) {
	bestAttr, bestDistinct := -1, 1
	var bestVals []float64
	for _, attr := range c.db.Schema().OrdinalIndexes() {
		vals := make([]float64, 0, len(returned))
		for _, t := range returned {
			vals = append(vals, t.Ord[attr])
		}
		sort.Float64s(vals)
		distinct := 1
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[i-1] {
				distinct++
			}
		}
		if distinct > bestDistinct {
			bestAttr, bestDistinct, bestVals = attr, distinct, vals
		}
	}
	if bestAttr >= 0 {
		distinctVals := bestVals[:0:0]
		for i, v := range bestVals {
			if i == 0 || v != bestVals[i-1] {
				distinctVals = append(distinctVals, v)
			}
		}
		v := distinctVals[len(distinctVals)/2]
		if v == distinctVals[0] {
			v = distinctVals[1]
		}
		cur, has := q.Range(bestAttr)
		if !has {
			cur = types.FullInterval()
		}
		loQ := q.WithRange(bestAttr, types.Interval{Lo: cur.Lo, LoOpen: cur.LoOpen, Hi: v, HiOpen: true})
		hiQ := q.WithRange(bestAttr, types.Interval{Lo: v, LoOpen: false, Hi: cur.Hi, HiOpen: cur.HiOpen})
		return []query.Query{loQ, hiQ}, nil
	}
	// No diversity among the returned page (always the case when k = 1):
	// point-split at the returned value of some attribute whose interval
	// is not yet a single point. All three parts strictly shrink.
	for _, attr := range c.db.Schema().OrdinalIndexes() {
		cur, has := q.Range(attr)
		if !has {
			cur = types.FullInterval()
		}
		if cur.Lo == cur.Hi {
			continue // already a point predicate
		}
		v := returned[0].Ord[attr]
		loQ := q.WithRange(attr, types.Interval{Lo: cur.Lo, LoOpen: cur.LoOpen, Hi: v, HiOpen: true})
		midQ := q.WithRange(attr, types.ClosedInterval(v, v))
		hiQ := q.WithRange(attr, types.Interval{Lo: v, LoOpen: true, Hi: cur.Hi, HiOpen: cur.HiOpen})
		return []query.Query{loQ, midQ, hiQ}, nil
	}
	return c.splitCategorical(q, returned)
}

// splitCategorical partitions q by enumerating the declared values of a
// categorical attribute on which the returned tuples differ.
func (c *Crawler) splitCategorical(q query.Query, returned []types.Tuple) ([]query.Query, error) {
	schema := c.db.Schema()
	for i := 0; i < schema.Len(); i++ {
		attr := schema.Attr(i)
		if attr.Kind != types.Categorical || len(attr.Values) < 2 {
			continue
		}
		if _, fixed := q.Cat(attr.Name); fixed {
			continue
		}
		parts := make([]query.Query, 0, len(attr.Values))
		for _, v := range attr.Values {
			parts = append(parts, q.WithCat(attr.Name, v))
		}
		return parts, nil
	}
	return nil, ErrUnsplittable
}
