package main

import (
	"fmt"
	"sort"

	"repro/internal/service"
	"repro/internal/types"
)

// answer is what the benchmark keeps of one rerank response for checking:
// the score sequence and the exhausted flag.
type answer struct {
	scores    []float64
	exhausted bool
}

func answerOf(tuples []service.TupleJSON, exhausted bool) answer {
	a := answer{scores: make([]float64, len(tuples)), exhausted: exhausted}
	for i, t := range tuples {
		a.scores[i] = t.Score
	}
	return a
}

// oracle answers a rerank request by brute force over the driver's own copy
// of the corpus: filter, score, sort. It shares no code with the engine.
// Sorted score lists are memoised per (window, ranking); the universe of
// distinct requests is small.
type oracle struct {
	schema *types.Schema
	tuples []types.Tuple
	memo   map[string][]float64
}

func newOracle(schema *types.Schema, tuples []types.Tuple) *oracle {
	return &oracle{schema: schema, tuples: tuples, memo: make(map[string][]float64)}
}

// sortedScores returns the ascending scores of every tuple matching req's
// range (smaller is better, as in the service).
func (o *oracle) sortedScores(req service.RerankRequest) ([]float64, error) {
	key := requestKey(req)
	if s, ok := o.memo[key]; ok {
		return s, nil
	}
	rs := req.Ranges[0]
	fa := o.schema.Index(rs.Attr)
	idx := make([]int, len(req.Ranking.Attrs))
	for i, name := range req.Ranking.Attrs {
		if idx[i] = o.schema.Index(name); idx[i] < 0 {
			return nil, fmt.Errorf("oracle: unknown attribute %q", name)
		}
	}
	var score func(t types.Tuple) float64
	switch req.Ranking.Kind {
	case "single":
		sign := 1.0
		if req.Ranking.Desc {
			sign = -1
		}
		score = func(t types.Tuple) float64 { return sign * t.Ord[idx[0]] }
	case "linear":
		score = func(t types.Tuple) float64 {
			s := 0.0
			for j, a := range idx {
				s += req.Ranking.Weights[j] * t.Ord[a]
			}
			return s
		}
	default:
		return nil, fmt.Errorf("oracle: unsupported ranking kind %q", req.Ranking.Kind)
	}
	var scores []float64
	for _, t := range o.tuples {
		if v := t.Ord[fa]; v >= *rs.Min && v <= *rs.Max {
			scores = append(scores, score(t))
		}
	}
	sort.Float64s(scores)
	o.memo[key] = scores
	return scores, nil
}

// check reports whether got is the correct answer to req.
func (o *oracle) check(req service.RerankRequest, got answer) error {
	all, err := o.sortedScores(req)
	if err != nil {
		return err
	}
	want := all
	if len(want) > req.H {
		want = want[:req.H]
	}
	if len(got.scores) != len(want) {
		return fmt.Errorf("%s h=%d: %d tuples, want %d", requestKey(req), req.H, len(got.scores), len(want))
	}
	for i := range want {
		if got.scores[i] != want[i] {
			return fmt.Errorf("%s h=%d: score[%d] = %v, want %v", requestKey(req), req.H, i, got.scores[i], want[i])
		}
	}
	if wantEx := len(all) < req.H; got.exhausted != wantEx {
		return fmt.Errorf("%s h=%d: exhausted = %v, want %v", requestKey(req), req.H, got.exhausted, wantEx)
	}
	return nil
}
