package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/types"
)

// layerProbe holds the timings taken directly on the storage and index
// layers of the engine the traced run leaves behind, over the workload's
// own windows.
type layerProbe struct {
	dense1dRegions    float64
	dense1dLookupNs   float64
	histMinNs         float64
	histMaxNs         float64
	histCountNs       float64
	histScanNsPerRow  float64
	histAddNsPerTuple float64
}

// probeCalls is how many calls each timed loop makes.
const probeCalls = 2000

// timePerCall runs fn n times and returns the mean nanoseconds per call.
func timePerCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

var probeSink int // keeps timed results alive

func probeLayers(sp spec, eng *core.Engine) layerProbe {
	schema := eng.DB().Schema()
	universe := buildWindows(ordinalAttrs(schema), sp.windows)
	type win struct {
		attr int
		iv   types.Interval
		q    query.Query
	}
	wins := make([]win, len(universe))
	for i, w := range universe {
		a := schema.Index(w.Attr)
		iv := types.ClosedInterval(w.Lo, w.Hi)
		wins[i] = win{attr: a, iv: iv, q: query.New().WithRange(a, iv)}
	}
	var lp layerProbe

	d1 := eng.DenseIndex1D()
	lp.dense1dLookupNs = timePerCall(probeCalls, func(i int) {
		w := wins[i%len(wins)]
		if _, ok := d1.Lookup(w.attr, w.iv); ok {
			probeSink++
		}
	})

	for _, a := range schema.OrdinalIndexes() {
		lp.dense1dRegions += float64(d1.Regions(a))
	}

	hist := eng.History()
	lp.histMinNs = timePerCall(probeCalls, func(i int) {
		w := wins[i%len(wins)]
		if _, ok := hist.MinMatching(w.q, w.attr, w.iv); ok {
			probeSink++
		}
	})
	lp.histMaxNs = timePerCall(probeCalls, func(i int) {
		w := wins[i%len(wins)]
		if _, ok := hist.MaxMatching(w.q, w.attr, w.iv); ok {
			probeSink++
		}
	})
	counts := min(probeCalls, 200) // each call scans every row
	lp.histCountNs = timePerCall(counts, func(i int) {
		probeSink += hist.CountMatching(wins[i%len(wins)].q)
	})
	rows := hist.Rows()
	if rows > 0 {
		lp.histScanNsPerRow = lp.histCountNs / float64(rows)
		// The same tuples into a fresh store, a probe answer (k tuples)
		// at a time.
		tuples := hist.ExportRows(0, rows)
		fresh := history.NewStore(schema)
		k := eng.DB().K()
		start := time.Now()
		for lo := 0; lo < len(tuples); lo += k {
			fresh.Add(tuples[lo:min(lo+k, len(tuples))]...)
		}
		lp.histAddNsPerTuple = float64(time.Since(start)) / float64(len(tuples))
	}
	return lp
}
