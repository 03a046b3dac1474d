package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the figure goldens under testdata/ from this build's numbers")

// goldenText renders a figure for testdata/: one row per x value, one column
// per series, every cost in its shortest exact decimal form. The runs are
// seeded and run with the fact index off (ProbeCacheSize: -1), so every
// probe is issued and a cell is a ratio of
// integers and any difference is a change in what the algorithms ask.
func goldenText(f Figure) string {
	var sb strings.Builder
	sb.WriteString(f.XLabel)
	for _, s := range f.Series {
		sb.WriteString("," + s.Name)
	}
	sb.WriteByte('\n')
	for i := range f.Series[0].Y {
		if len(f.XTicks) > i {
			sb.WriteString(f.XTicks[i])
		} else {
			sb.WriteString(strconv.FormatFloat(f.Series[0].X[i], 'g', -1, 64))
		}
		for _, s := range f.Series {
			sb.WriteString("," + strconv.FormatFloat(s.Y[i], 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestFigureGoldens1D pins the probe counts of the 1D figures (6–12) at
// Default() scale. A change to what 1D-BASELINE, 1D-BINARY or 1D-RERANK ask
// the upstream shows up here as a golden diff, which the change must commit
// (go test ./internal/experiments -run TestFigureGoldens1D -update).
func TestFigureGoldens1D(t *testing.T) {
	checkGoldens(t, "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")
}

// TestFigureGoldensMD does the same for the MD figures (13–17): MD-BASELINE,
// MD-BINARY, MD-RERANK and TA over 1D-RERANK at W = 1.
func TestFigureGoldensMD(t *testing.T) {
	checkGoldens(t, "fig13", "fig14", "fig15", "fig16", "fig17")
}

// checkGoldens runs each figure at Default() scale against its file under
// testdata/, or rewrites the file under -update.
func checkGoldens(t *testing.T, ids ...string) {
	if testing.Short() {
		t.Skip("runs the figures at Default() scale")
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			run, _ := ByID(id)
			fig, err := run(Default())
			if err != nil {
				t.Fatal(err)
			}
			got := goldenText(fig)
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s\n--- got\n%s--- want\n%s", id, path, got, want)
			}
		})
	}
}
