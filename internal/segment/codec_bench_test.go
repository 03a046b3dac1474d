package segment

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// durableFitStore builds a compacted segment file's content shaped like the
// store bench/perf's durable-fit workload leaves behind: 2,861 Blue Nile
// history tuples (9 ordinal slots, 4 categorical values each), 1,045 probe
// records citing 6,029 rows in all (33 of them crawled regions), spread over
// 16 deltas.
func durableFitStore() (Fingerprint, []*Delta) {
	const (
		deltas  = 16
		tuples  = 2861
		probes  = 1045
		rows    = 6029
		crawled = 33
	)
	ds := dataset.BlueNile(160205100, tuples)
	fp := Fingerprint{Schema: ds.Schema.Names(), UpstreamK: 30}
	rng := rand.New(rand.NewSource(1))
	out := make([]*Delta, deltas)
	for i := range out {
		lo, hi := i*tuples/deltas, (i+1)*tuples/deltas
		d := &Delta{HistLo: lo, HistHi: hi, Queries: int64(100 * (i + 1))}
		for _, t := range ds.Tuples[lo:hi] {
			d.Hist = append(d.Hist, Tuple{ID: t.ID, Ord: t.Ord, Cat: t.Cat})
		}
		out[i] = d
	}
	// Rows per probe: crawled regions carry 40 each, the rest share what is
	// left, so the total is exactly rows.
	perProbe := (rows - 40*crawled) / (probes - crawled)
	extra := (rows - 40*crawled) % (probes - crawled)
	for p := 0; p < probes; p++ {
		d := out[p*deltas/probes]
		attr := []int{0, 3, 1}[p%3]
		lo := ds.Tuples[rng.Intn(tuples)].Ord[attr]
		op := ProbeOp{
			Ranges: []ProbeRange{{Attr: attr, Lo: Bound(lo), Hi: Bound(lo * (1 + rng.Float64())), HiOpen: p%2 == 0}},
			Epoch:  1,
		}
		n := perProbe
		switch {
		case p < crawled:
			n, op.Crawled = 40, true
			op.Ranges = append(op.Ranges, ProbeRange{Attr: 4, Lo: 1, Hi: 2})
		case p%4 == 0:
			op.Ranges[0].Hi, op.Ranges[0].LoOpen = Bound(math.Inf(1)), true
			op.Cats = map[string]string{"Shape": "Round"}
		case p%7 == 0:
			op.Overflow = true
		}
		if p >= crawled && p-crawled < extra {
			n++
		}
		for r := 0; r < n; r++ {
			op.Rows = append(op.Rows, uint32(rng.Intn(d.HistHi)))
		}
		d.Probes = append(d.Probes, op)
	}
	return fp, out
}

// BenchmarkSegmentCodec prices writing and reading one segment file shaped
// like durable-fit's (MB/s is of the encoded file).
func BenchmarkSegmentCodec(b *testing.B) {
	fp, deltas := durableFitStore()
	body, err := encodeSegment(fp, deltas)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeSegment(fp, deltas); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeSegment(body, fp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
