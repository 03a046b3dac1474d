package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// probeLog is an upstream that writes down every probe it is asked.
type probeLog struct {
	*hidden.DB
	mu     sync.Mutex
	probes []string
}

func (p *probeLog) TopK(q query.Query) (hidden.Result, error) {
	p.mu.Lock()
	p.probes = append(p.probes, q.String())
	p.mu.Unlock()
	return p.DB.TopK(q)
}

// TestMDProbeStreamIndependentOfH: how deep MD-RERANK certifies is a function
// of system-k, never of how many answers the request will ask for, so from
// one engine state the probes of a top-3 are the first probes of a top-8.
func TestMDProbeStreamIndependentOfH(t *testing.T) {
	schema := testSchema(2)
	tuples := genTuples(rand.New(rand.NewSource(91)), schema, 2000, false)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 1, ranking.Desc)}
	r := ranking.MustLinear("u", []int{0, 1}, []float64{1, 2})
	warm := ranking.MustLinear("w", []int{0, 1}, []float64{3, 1})
	q := query.New().WithCat("cat", "x")
	for _, coalesce := range []bool{true, false} {
		stream := func(h int) []string {
			db := &probeLog{DB: hidden.MustDB(schema, tuples, hidden.Options{K: 30, Ranker: sys})}
			e := NewEngine(db, Options{N: len(tuples), DisableCoalescing: !coalesce})
			// The same warm-up on every engine: history and facts to certify from.
			for _, w := range []ranking.Ranker{warm, r} {
				if _, err := TopH(e.NewMDCursor(q, w, Rerank), 6); err != nil {
					t.Fatal(err)
				}
			}
			from := len(db.probes)
			if _, err := TopH(e.NewMDCursor(q, r, Rerank), h); err != nil {
				t.Fatal(err)
			}
			if c, _ := e.MDCertificationStats(); c == 0 {
				t.Fatal("no deep certification came back complete; the test exercised nothing")
			}
			return db.probes[from:]
		}
		top3, top8 := stream(3), stream(8)
		if len(top3) > len(top8) || !slices.Equal(top3, top8[:len(top3)]) {
			t.Fatalf("coalescing=%v: the top-3's probes are not a prefix of the top-8's\ntop-3: %q\ntop-8: %q", coalesce, top3, top8)
		}
	}
}

// TestMDCoverAcrossTieGroups drains a corpus of ten-tuple tie groups under a
// page of twenty, where every cover page cuts through tie groups that are
// emitted while it is held — by its own region, or, at W > 1, by the Get-Next
// whose tie probe a prefetched region's certification overlapped. No tuple
// may come out twice or go missing, and no region may stand resolved on a
// tuple already emitted.
func TestMDCoverAcrossTieGroups(t *testing.T) {
	schema := testSchema(3)
	tuples := genTuples(rand.New(rand.NewSource(92)), schema, 1200, true)
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	r := ranking.MustLinear("grid", []int{0, 1}, []float64{1, 2})
	q := query.New().WithCat("cat", "y")
	full := oracleTopH(tuples, q, r, len(tuples))
	for _, width := range []int{1, 4} {
		db := hidden.MustDB(schema, tuples, hidden.Options{K: 20, Ranker: sys})
		e := NewEngine(db, Options{N: len(tuples), SearchParallelism: width})
		// A first pass leaves the history the second certifies from.
		if _, err := TopH(e.NewMDCursor(q, r, Rerank), 40); err != nil {
			t.Fatal(err)
		}
		cur := e.NewMDCursor(q, r, Rerank)
		seen := map[int]bool{}
		var got []types.Tuple
		heldEmitted := false
		for len(got) < 150 {
			tp, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if seen[tp.ID] {
				t.Fatalf("W=%d: tuple %d emitted twice", width, tp.ID)
			}
			seen[tp.ID] = true
			got = append(got, tp)
			for _, reg := range cur.regions {
				if reg.resolved && cur.emitted[reg.best.ID] {
					t.Fatalf("W=%d: a region stands resolved on emitted tuple %d", width, reg.best.ID)
				}
				if reg.cover != nil {
					for _, st := range reg.cover.page {
						heldEmitted = heldEmitted || cur.emitted[st.t.ID]
					}
				}
			}
		}
		assertSameRanking(t, r, got, full[:min(150, len(full))], full)
		if !heldEmitted {
			t.Fatalf("W=%d: no held cover page ever listed an emitted tuple; the test exercised nothing", width)
		}
	}
}
