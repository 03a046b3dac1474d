// Package workload constructs the user-preference query workloads of §6.2
// and §6.3: random subsets of filtering attributes for the WHERE clause,
// with either a uniformly-drawn ranking attribute (1D) or a random-weight
// linear ranking function over a random attribute subset (MD).
package workload

import (
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// Item1D is one 1D workload entry: SELECT * WHERE Sel(q) ORDER BY Attr Dir.
type Item1D struct {
	Q    query.Query
	Attr int
	Dir  ranking.Direction
}

// ItemMD is one MD workload entry: SELECT * WHERE Sel(q) ORDER BY S(t).
type ItemMD struct {
	Q query.Query
	R ranking.Ranker
}

// Spec configures workload construction.
type Spec struct {
	// Count is the number of queries (32 for DOT, 20/12 for BN, 15/10
	// for YA in the paper).
	Count int
	// NoFilter is how many queries carry no selection condition.
	NoFilter int
	// RankAttrs are the ordinal attributes eligible for ranking;
	// defaults to every ordinal attribute.
	RankAttrs []int
	// MinAttrs/MaxAttrs bound the number of ranked attributes for MD
	// workloads (defaults 2..len(RankAttrs)).
	MinAttrs, MaxAttrs int
	// AllowDesc permits descending 1D preferences (half the queries).
	AllowDesc bool
}

func (s *Spec) defaults(ds *dataset.Dataset) {
	if len(s.RankAttrs) == 0 {
		s.RankAttrs = append([]int(nil), ds.Schema.OrdinalIndexes()...)
	}
	if s.MinAttrs == 0 {
		s.MinAttrs = 2
	}
	if s.MaxAttrs == 0 || s.MaxAttrs > len(s.RankAttrs) {
		s.MaxAttrs = len(s.RankAttrs)
	}
}

// randFilter builds a random selection condition: one or two categorical
// equality predicates, occasionally plus an ordinal range on a non-ranked
// attribute.
func randFilter(rng *rand.Rand, ds *dataset.Dataset, rankAttr int) query.Query {
	q := query.New()
	schema := ds.Schema
	var cats []types.Attribute
	for i := 0; i < schema.Len(); i++ {
		if a := schema.Attr(i); a.Kind == types.Categorical && len(a.Values) > 0 {
			cats = append(cats, a)
		}
	}
	nPred := 1 + rng.Intn(2)
	for p := 0; p < nPred && len(cats) > 0; p++ {
		a := cats[rng.Intn(len(cats))]
		q = q.WithCat(a.Name, a.Values[rng.Intn(len(a.Values))])
	}
	// Occasionally add a range predicate on an ordinal attribute other
	// than the ranked one (real users mix ranges and filters).
	if rng.Intn(3) == 0 {
		ords := schema.OrdinalIndexes()
		a := ords[rng.Intn(len(ords))]
		if a != rankAttr {
			d := schema.Domain(a)
			lo := d.Min + rng.Float64()*d.Width()*0.4
			hi := lo + d.Width()*(0.2+rng.Float64()*0.5)
			q = q.WithRange(a, types.ClosedInterval(lo, d.Clamp(hi)))
		}
	}
	return q
}

// OneD builds a 1D workload per §6.2.
func OneD(rng *rand.Rand, ds *dataset.Dataset, spec Spec) []Item1D {
	spec.defaults(ds)
	items := make([]Item1D, 0, spec.Count)
	for i := 0; i < spec.Count; i++ {
		attr := spec.RankAttrs[rng.Intn(len(spec.RankAttrs))]
		dir := ranking.Asc
		if spec.AllowDesc && rng.Intn(2) == 0 {
			dir = ranking.Desc
		}
		q := query.New()
		if i >= spec.NoFilter {
			q = randFilter(rng, ds, attr)
		}
		items = append(items, Item1D{Q: q, Attr: attr, Dir: dir})
	}
	return items
}

// MD builds an MD workload per §6.3: ranking functions are linear with
// weights drawn uniformly from (0, 1] over a random attribute subset.
func MD(rng *rand.Rand, ds *dataset.Dataset, spec Spec) []ItemMD {
	spec.defaults(ds)
	items := make([]ItemMD, 0, spec.Count)
	for i := 0; i < spec.Count; i++ {
		nAttrs := spec.MinAttrs
		if spec.MaxAttrs > spec.MinAttrs {
			nAttrs += rng.Intn(spec.MaxAttrs - spec.MinAttrs + 1)
		}
		perm := rng.Perm(len(spec.RankAttrs))[:nAttrs]
		attrs := make([]int, nAttrs)
		weights := make([]float64, nAttrs)
		for j, p := range perm {
			attrs[j] = spec.RankAttrs[p]
			weights[j] = 0.05 + 0.95*rng.Float64()
		}
		r := ranking.MustLinear("w-linear", attrs, weights)
		q := query.New()
		if i >= spec.NoFilter {
			q = randFilter(rng, ds, -1)
		}
		items = append(items, ItemMD{Q: q, R: r})
	}
	return items
}

// Selectivity returns |R(q)| / n for ordering experiments (Figure 10).
func Selectivity(ds *dataset.Dataset, q query.Query) float64 {
	if len(ds.Tuples) == 0 {
		return 0
	}
	match := 0
	for _, t := range ds.Tuples {
		if q.Matches(t) {
			match++
		}
	}
	return float64(match) / float64(len(ds.Tuples))
}

// Order rearranges a 1D workload for the Figure-10 experiment.
type Order int

const (
	// GeneralToSpecial orders queries from low to high selectivity
	// pressure (broad queries first).
	GeneralToSpecial Order = iota
	// SpecialToGeneral is the reverse.
	SpecialToGeneral
	// RandomOrder shuffles.
	RandomOrder
)

// String names the order as in Figure 10's legend.
func (o Order) String() string {
	switch o {
	case GeneralToSpecial:
		return "general to special"
	case SpecialToGeneral:
		return "special to general"
	default:
		return "random"
	}
}

// Reorder returns a copy of items arranged per the requested order.
func Reorder(rng *rand.Rand, ds *dataset.Dataset, items []Item1D, o Order) []Item1D {
	out := append([]Item1D(nil), items...)
	switch o {
	case RandomOrder:
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	case GeneralToSpecial, SpecialToGeneral:
		sel := make([]float64, len(out))
		for i, it := range out {
			sel[i] = Selectivity(ds, it.Q)
		}
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if o == GeneralToSpecial {
				return sel[idx[a]] > sel[idx[b]] // broad (high match fraction) first
			}
			return sel[idx[a]] < sel[idx[b]]
		})
		res := make([]Item1D, len(out))
		for i, j := range idx {
			res[i] = out[j]
		}
		out = res
	}
	return out
}
