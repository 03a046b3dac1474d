package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// refSeed is the full history scan MD seeding replaced: every row of v
// matching the cursor's query, in row order, through the per-row rule the
// seed list must reproduce — emitted and skipped versions first, then the
// box, then deep and the (score, ID) rule. ties counts the equal-score
// comparisons it decided, across IDs and across versions of one ID.
func refSeed(c *MDCursor, v colstore.View, box query.Box, ties *[2]int) candidate {
	var cand candidate
	if c.depth > 1 {
		cand.deep = make([]float64, c.depth)
		for i := range cand.deep {
			cand.deep[i] = math.Inf(1)
		}
	}
	ax := ranking.NewAxis(c.resolvers[0].axis.R, c.s.e.db.Schema())
	z := make([]float64, ax.M())
	c.s.e.hist.ScanMatching(c.q, v, 0, func(row int) {
		id := v.ID(row)
		if c.emitted[id] || (len(c.skip) > 0 && c.skippedRow(v, row, id)) {
			return
		}
		if !box.Contains(ax.ToAxisViewInto(v, row, z)) {
			return
		}
		s := ax.ScoreAxis(z)
		if d := cand.deep; len(d) > 0 && s < d[len(d)-1] {
			cand.fileDeep(s)
		}
		if cand.have && s == cand.score {
			if id == cand.t.ID {
				ties[1]++
			} else {
				ties[0]++
			}
		}
		if !cand.have || s < cand.score || (s == cand.score && id < cand.t.ID) {
			cand.t.ID, cand.row, cand.score, cand.have = id, row, s, true
		}
	})
	n := len(cand.deep)
	for n > 0 && math.IsInf(cand.deep[n-1], 1) {
		n--
	}
	cand.deep = cand.deep[:n]
	return cand
}

// TestMDSeedListMatchesScan: seeding from the cursor's seed list picks, round
// after round, the candidate (ID, row and score) and the deep scores that a
// full history scan picks. Between rounds the history grows by new tuples and
// by new versions of old ones (some of them scoring as the old version did),
// IDs are emitted, and a stale version of an ID whose newer version stays
// eligible is skipped. Scores sit on a coarse grid so equal scores are
// common; system-k 30 gives depth 3, and W = 4 seeds four regions a round.
func TestMDSeedListMatchesScan(t *testing.T) {
	schema := testSchema(3)
	grid := func(rng *rand.Rand) float64 { return float64(rng.Intn(10)) * 10 }
	cats := []string{"x", "y", "z"}
	mk := func(rng *rand.Rand, id int) types.Tuple {
		return types.Tuple{ID: id,
			Ord: []float64{grid(rng), grid(rng), rng.Float64() * 100},
			Cat: map[string]string{"cat": cats[rng.Intn(2)]}}
	}
	rank := ranking.MustLinear("seed", []int{0, 1}, []float64{1, 2})
	var ties [2]int
	var skippedNewer, deepFull int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := hidden.MustDB(schema, nil, hidden.Options{K: 30, Ranker: hidden.RankerAdapter{R: rank}})
		e := NewEngine(db, Options{N: 1000, SearchParallelism: 4})
		c := e.NewMDCursor(query.New().WithCat("cat", "x"), rank, Rerank)
		if c.depth != 3 || c.width != 4 {
			t.Fatalf("depth %d width %d, want 3 and 4", c.depth, c.width)
		}
		whole := c.axis().QueryToBox(c.q)
		for round := 0; round < 40; round++ {
			// Grow the history: new IDs in no order, and new versions of
			// stored IDs — half of them keep the ranked values (same score).
			for i := 0; i < 5+rng.Intn(20); i++ {
				e.hist.Add(mk(rng, rng.Intn(400)))
			}
			for i := 0; i < rng.Intn(6); i++ {
				old, ok := e.hist.Get(rng.Intn(400))
				if !ok {
					continue
				}
				nv := mk(rng, old.ID)
				if rng.Intn(2) == 0 {
					nv.Ord[0], nv.Ord[1] = old.Ord[0], old.Ord[1]
				}
				e.hist.Add(nv)
			}
			v := e.hist.View()
			if round%4 == 3 {
				c.emitted[v.ID(rng.Intn(v.Len()))] = true
			}
			if round%5 == 4 {
				// Skip a superseded version: its ID resolves to a newer row.
				for try := 0; try < 50; try++ {
					row := rng.Intn(v.Len())
					if cur, _ := e.hist.Get(v.ID(row)); !cur.Equal(v.Tuple(row)) {
						c.skip = append(c.skip, v.Tuple(row))
						break
					}
				}
			}

			c.regions = c.regions[:0]
			for i := 0; i < 4; i++ {
				b := whole.Clone()
				if rng.Intn(4) > 0 {
					for j := range b.Dims {
						lo := grid(rng) - 5
						b.Dims[j] = b.Dims[j].Intersect(types.ClosedInterval(lo, lo+10+grid(rng)))
					}
				}
				c.pushRegion(b, nil)
			}
			regs := c.popRound(c.width)
			cands := c.seedRound(regs)
			v = e.hist.View()
			for i, reg := range regs {
				got, want := cands[i], refSeed(c, v, reg.box, &ties)
				if got.have != want.have || got.t.ID != want.t.ID || got.row != want.row ||
					got.score != want.score || !slices.Equal(got.deep, want.deep) {
					t.Fatalf("seed %d round %d region %d %v: seed list gave (have %v id %d row %d score %g deep %v), full scan (have %v id %d row %d score %g deep %v)",
						seed, round, i, reg.box, got.have, got.t.ID, got.row, got.score, got.deep,
						want.have, want.t.ID, want.row, want.score, want.deep)
				}
				if got.have && !got.t.Equal(v.Tuple(got.row)) {
					t.Fatalf("seed %d round %d region %d: candidate %v is not row %d", seed, round, i, got.t, got.row)
				}
				if len(want.deep) == c.depth {
					deepFull++
				}
				for _, s := range c.skip {
					if got.have && s.ID == got.t.ID {
						skippedNewer++
					}
				}
			}
		}
		if len(c.seeds.rows) == 0 {
			t.Fatalf("seed %d: empty seed list", seed)
		}
	}
	t.Logf("%d ties across IDs, %d across versions, %d candidates a newer version of a skipped one, %d full deep lists",
		ties[0], ties[1], skippedNewer, deepFull)
	// The cases the list must get right did occur.
	if ties[0] == 0 || ties[1] == 0 || skippedNewer == 0 || deepFull == 0 {
		t.Fatalf("coverage: %d ties across IDs, %d across versions, %d candidates a newer version of a skipped one, %d full deep lists",
			ties[0], ties[1], skippedNewer, deepFull)
	}
}

// TestMDSeedViewWaitsForFact: an MD cursor never seeds from a page whose
// fact is not yet in the index. The test stops where Session.fetch stands
// between its two writes — the page in the arena, its fact not yet learned,
// publish held for writing — and the cursor's seedRound must not return
// until the fact is in; it then seeds from the page and finds the fact.
func TestMDSeedViewWaitsForFact(t *testing.T) {
	rank := ranking.MustLinear("seed", []int{0, 1}, []float64{1, 2})
	db := hidden.MustDB(testSchema(3), nil, hidden.Options{K: 30, Ranker: hidden.RankerAdapter{R: rank}})
	e := NewEngine(db, Options{N: 1000, SearchParallelism: 4})
	q := query.New().WithCat("cat", "x")
	c := e.NewMDCursor(q, rank, Rerank)
	c.pushRegion(c.axis().QueryToBox(c.q), nil)
	regs := c.popRound(c.width)

	key := q.String()
	e.publish.Lock()
	rows := e.hist.AddRows([]types.Tuple{{ID: 7, Ord: []float64{1, 2, 3}, Cat: map[string]string{"cat": "x"}}})
	done := make(chan []candidate, 1)
	go func() { done <- c.seedRound(regs) }()
	select {
	case <-done:
		e.publish.Unlock()
		t.Fatal("seedRound returned while a page was in the arena without its fact")
	case <-time.After(50 * time.Millisecond):
	}
	e.facts.learn(key, q, rows, false, e.Epoch())
	e.publish.Unlock()
	cands := <-done
	if !cands[0].have || cands[0].t.ID != 7 {
		t.Fatalf("candidate %+v, want the page's tuple 7", cands[0])
	}
	if _, hit := e.facts.lookup([]byte(key), q, e.Epoch(), false); hit == hitNone {
		t.Fatal("the page's fact is not in the index")
	}
}
