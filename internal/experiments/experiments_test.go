package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps the per-figure smoke tests under a second or two.
func tinyConfig() Config {
	return Config{
		Seed:          160205100,
		Sizes:         []int{800, 1600},
		Samples:       1,
		DOTN:          3200,
		BNN:           2000,
		YAN:           1500,
		WorkloadCount: 12,
		TopH:          20,
	}
}

// TestEveryFigureRuns executes all twelve runners at tiny scale and checks
// structural invariants: non-empty monotone series, positive costs, and the
// qualitative relations that must hold at any scale.
func TestEveryFigureRuns(t *testing.T) {
	cfg := tinyConfig()
	figs, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 12 {
		t.Fatalf("got %d figures, want 12", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) == 0 {
			t.Errorf("%s: no series", f.ID)
		}
		for _, s := range f.Series {
			if len(s.Y) == 0 {
				t.Errorf("%s/%s: empty series", f.ID, s.Name)
			}
			for i, y := range s.Y {
				if y < 0 {
					t.Errorf("%s/%s[%d]: negative cost %g", f.ID, s.Name, i, y)
				}
			}
		}
		var sb strings.Builder
		f.Render(&sb)
		if !strings.Contains(sb.String(), f.ID) {
			t.Errorf("%s: Render output missing figure id", f.ID)
		}
	}
}

// TestCumulativeFiguresMonotone: figures 8, 11, 12, 15, 16, 17 report
// cumulative costs, which must be nondecreasing in h.
func TestCumulativeFiguresMonotone(t *testing.T) {
	cfg := tinyConfig()
	for _, id := range []string{"fig8", "fig11", "fig15", "fig16"} {
		runner, _ := ByID(id)
		fig, err := runner(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, s := range fig.Series {
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1]-1e-9 {
					t.Errorf("%s/%s: cumulative cost decreased at %d: %g -> %g",
						id, s.Name, i, s.Y[i-1], s.Y[i])
				}
			}
		}
	}
}

// TestTAWorseThanMD: the central MD claim must hold even at tiny scale — at
// Fig 13's top-1 and at every h of Fig 16's top-h — and at Default() scale in
// the numbers testdata/fig16.golden pins. Fig 17's series cross on Yahoo!
// Autos (each algorithm wins somewhere); where is logged, not asserted.
func TestTAWorseThanMD(t *testing.T) {
	cfg := tinyConfig()
	fig, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ta, md float64
	for _, s := range fig.Series {
		last := s.Y[len(s.Y)-1]
		switch s.Name {
		case "TA over 1D-RERANK":
			ta = last
		case "MD-RERANK":
			md = last
		}
	}
	if !(ta > 2*md) {
		t.Errorf("TA (%g) should cost well over 2x MD-RERANK (%g)", ta, md)
	}
	tiny16, err := Fig16(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []Figure{tiny16, readGolden(t, "fig16")} {
		if h, ok := firstAbove(fig, "MD-RERANK", "TA over 1D-RERANK"); ok {
			t.Errorf("fig16 (%d rows): MD-RERANK costs more than TA over 1D-RERANK at top-%g", len(fig.Series[0].X), h)
		}
	}
	if h, ok := firstAbove(readGolden(t, "fig17"), "MD-RERANK", "TA over 1D-RERANK"); ok {
		t.Logf("fig17: MD-RERANK is the cheaper below top-%g, TA over 1D-RERANK from there on", h)
	} else {
		t.Log("fig17: MD-RERANK is the cheaper at every h")
	}
}

// firstAbove returns the first x at which series a lies above series b.
func firstAbove(fig Figure, a, b string) (float64, bool) {
	var ya, yb []float64
	for _, s := range fig.Series {
		switch s.Name {
		case a:
			ya = s.Y
		case b:
			yb = s.Y
		}
	}
	for i := range ya {
		if ya[i] > yb[i] {
			return fig.Series[0].X[i], true
		}
	}
	return 0, false
}

// readGolden parses testdata/<id>.golden (see goldenText) back into a figure.
func readGolden(t *testing.T, id string) Figure {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	fig := Figure{ID: id}
	for _, name := range strings.Split(lines[0], ",")[1:] {
		fig.Series = append(fig.Series, Series{Name: name})
	}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		x, err := strconv.ParseFloat(cells[0], 64)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for i := range fig.Series {
			y, err := strconv.ParseFloat(cells[i+1], 64)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			fig.Series[i].X = append(fig.Series[i].X, x)
			fig.Series[i].Y = append(fig.Series[i].Y, y)
		}
	}
	return fig
}

// TestSystemKOrdering: larger system-k must not cost more (fig8).
func TestSystemKOrdering(t *testing.T) {
	fig, err := Fig8(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	last := func(name string) float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				return s.Y[len(s.Y)-1]
			}
		}
		t.Fatalf("missing series %q", name)
		return 0
	}
	if last("system-k=1") < last("system-k=10") {
		t.Errorf("k=1 (%g) should cost at least k=10 (%g)", last("system-k=1"), last("system-k=10"))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig6"); !ok {
		t.Error("fig6 missing")
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("fig99 present")
	}
}

func TestConfigs(t *testing.T) {
	d, p := Default(), Paper()
	if d.DOTN >= p.DOTN || p.DOTN != 457013 {
		t.Errorf("configs wrong: default DOTN=%d paper DOTN=%d", d.DOTN, p.DOTN)
	}
	if p.BNN != 117641 || p.YAN != 13169 {
		t.Errorf("paper-scale dataset sizes wrong: %d %d", p.BNN, p.YAN)
	}
}
