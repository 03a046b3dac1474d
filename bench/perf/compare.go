package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runSet is what `perf all` writes and `perf compare` reads: for every
// workload, every value each metric took over the set's runs.
type runSet struct {
	Seconds   int                     `json:"seconds"`
	Seed      int64                   `json:"seed"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
}

func readRunSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictBreach     verdict = "BREACH"
	verdictUnresolved verdict = "unresolved"
)

// worsening is how much worse b's median is than a's, as a share of a's, in
// the direction the metric counts as worse (negative = better).
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if def.better == "higher" {
		d = -d
	}
	return d
}

// judge compares the values one bounded metric took in two run sets. A
// metric whose own run-to-run spread, on either side, exceeds its bound
// cannot show a change of that size: it is unresolved, not unchanged.
func judge(def metricDef, a, b []float64) (worse, spreadA, spreadB float64, v verdict) {
	worse = worsening(def, median(a), median(b))
	spreadA, spreadB = spreadFrac(a), spreadFrac(b)
	switch {
	case max(spreadA, spreadB) > def.bound:
		v = verdictUnresolved
	case worse > def.bound:
		v = verdictBreach
	default:
		v = verdictOK
	}
	return worse, spreadA, spreadB, v
}

// compareSets prints, per workload and bounded metric, B's median against
// A's and the verdict, and returns the number of breaches. More failed
// operations in B than in A is a breach of its own: fail_frac has no
// tolerance.
func compareSets(w io.Writer, a, b *runSet) int {
	breaches := 0
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	bounded := append([]metricDef(nil), endToEndDefs...)
	for _, d := range perLayerDefs {
		if d.bound > 0 {
			bounded = append(bounded, d)
		}
	}
	fmt.Fprintf(w, "%-12s %-24s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-12s missing from B\n", name)
			breaches++
			continue
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		v := verdictOK
		if fb > fa {
			v = verdictBreach
			breaches++
		}
		fmt.Fprintf(w, "%-12s %-24s %12.6f %12.6f %8s %7s %8s %8s  %s\n", name, "fail_frac", fa, fb, "", "+0", "", "", v)
		for _, def := range bounded {
			va, vb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			if va == nil {
				va, vb = wa.PerLayer[def.name], wb.PerLayer[def.name]
			}
			if len(va) == 0 || len(vb) == 0 || median(va) == 0 {
				continue // the metric does not apply to this workload
			}
			worse, sa, sb, v := judge(def, va, vb)
			if v == verdictBreach {
				breaches++
			}
			fmt.Fprintf(w, "%-12s %-24s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				name, def.name, median(va), median(vb), worse*100, def.bound*100, sa*100, sb*100, v)
		}
	}
	return breaches
}
