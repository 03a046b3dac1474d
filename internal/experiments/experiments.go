// Package experiments regenerates every figure of the paper's evaluation
// (§6, Figures 6–17). Each runner returns a Figure — named series of
// (x, average query cost) points — that cmd/rerankbench renders as a text
// table.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hidden"
)

// Series is one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	ID     string // e.g. "fig6"
	Title  string
	XLabel string
	YLabel string
	XTicks []string // optional categorical x labels (Figure 9)
	Series []Series
	Notes  []string
}

// Render writes the figure as an aligned text table.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	nx := 0
	for _, s := range f.Series {
		if len(s.X) > nx {
			nx = len(s.X)
		}
	}
	for i := 0; i < nx; i++ {
		row := make([]string, 0, len(f.Series)+1)
		if len(f.XTicks) > i {
			row = append(row, f.XTicks[i])
		} else if len(f.Series) > 0 && len(f.Series[0].X) > i {
			row = append(row, trimFloat(f.Series[0].X[i]))
		} else {
			row = append(row, "")
		}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.2f", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Config scales the experiments. The paper's full scale (n up to 100k, 10
// samples per size) takes minutes; the default is a faithful reduction that
// preserves every qualitative comparison.
type Config struct {
	Seed int64
	// Sizes are the database sizes for the impact-of-n figures.
	Sizes []int
	// Samples is the number of random samples per size (paper: 10).
	Samples int
	// DOTN is the size of the full synthetic DOT dataset to generate.
	DOTN int
	// BNN and YAN are the Blue Nile / Yahoo Autos dataset sizes.
	BNN, YAN int
	// WorkloadCount overrides per-figure workload sizes when > 0.
	WorkloadCount int
	// TopH is the number of answers retrieved in the top-h figures.
	TopH int
}

// Default returns the reduced-scale configuration used by `go test` and the
// default rerankbench run.
func Default() Config {
	return Config{
		Seed:    1602_05100,
		Sizes:   []int{2000, 4000, 6000, 8000, 10000},
		Samples: 3,
		DOTN:    12000,
		BNN:     8000,
		YAN:     6000,
		TopH:    100,
	}
}

// Paper returns the full-scale configuration matching §6.1 (slow).
func Paper() Config {
	return Config{
		Seed:    1602_05100,
		Sizes:   []int{20000, 40000, 60000, 80000, 100000},
		Samples: 10,
		DOTN:    457013,
		BNN:     117641,
		YAN:     13169,
		TopH:    100,
	}
}

// paperOpts returns engine options for paper-faithful cost accounting: the
// fact index is off so every probe the algorithms issue is charged, exactly
// as the paper counts queries. (The service keeps the fact index on by
// default; the experiments measure the algorithms alone.)
func paperOpts(n int) core.Options {
	return core.Options{N: n, ProbeCacheSize: -1}
}

// avgCost runs fn against a fresh engine over db and returns queries/ops.
func avgCost(db *hidden.DB, ops int, fn func(e *core.Engine) error) (float64, error) {
	db.ResetCounter()
	e := core.NewEngine(db, paperOpts(db.Size()))
	if err := fn(e); err != nil {
		return 0, err
	}
	if ops == 0 {
		ops = 1
	}
	return float64(db.QueryCount()) / float64(ops), nil
}

// dotSamples draws cfg.Samples random sub-databases of the given size.
func dotSamples(cfg Config, ds *dataset.Dataset, size int, rng *rand.Rand) []*dataset.Dataset {
	out := make([]*dataset.Dataset, cfg.Samples)
	for i := range out {
		out[i] = ds.Sample(rng, size)
	}
	return out
}

// All runs every figure at the given configuration.
func All(cfg Config) ([]Figure, error) {
	runners := []func(Config) (Figure, error){
		Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12,
		Fig13, Fig14, Fig15, Fig16, Fig17,
	}
	figs := make([]Figure, 0, len(runners))
	for _, r := range runners {
		f, err := r(cfg)
		if err != nil {
			return figs, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// ByID returns the runner for a figure id like "fig6".
func ByID(id string) (func(Config) (Figure, error), bool) {
	m := map[string]func(Config) (Figure, error){
		"fig6": Fig6, "fig7": Fig7, "fig8": Fig8, "fig9": Fig9,
		"fig10": Fig10, "fig11": Fig11, "fig12": Fig12, "fig13": Fig13,
		"fig14": Fig14, "fig15": Fig15, "fig16": Fig16, "fig17": Fig17,
	}
	f, ok := m[id]
	return f, ok
}
