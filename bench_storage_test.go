// BenchmarkStorageScale: the columnar-storage guardrail at realistic scale.
// It loads 1M synthetic diamonds into the history store and measures the
// three costs the columnar arena exists to control:
//
//   - load: build cost plus the post-build live heap (liveMB, measured with
//     runtime.ReadMemStats after a forced GC) and the worst GC pause observed
//     while loading (maxGCpauseMs). The impl=rows variant loads the same
//     tuples into a row-struct store (map of types.Tuple plus sorted
//     row-struct slices — the pre-columnar design), so the ratio of the two
//     liveMB numbers is the resident-memory win.
//   - rangescan: a predicate scan over all 1M rows through the zero-alloc
//     ScanMatching path (allocs/op is the interesting number).
//   - getnext-warm: one Get-Next call on a warm MD-RERANK cursor backed by
//     the columnar history (allocs/op again — the per-increment garbage the
//     serving tier generates under sustained load).
//
// CI runs this with -benchtime 1x (and a GOGC=50 variant) and gates ns/op
// against bench/baseline/storage.json via cmd/benchdiff.
package repro_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/history"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

const storageScaleN = 1_000_000

var (
	storageOnce   sync.Once
	storageTuples []types.Tuple  // 1M synthetic diamonds, generated once
	storageStore  *history.Store // shared warm columnar store for read benches
)

func storageSetup() {
	storageOnce.Do(func() {
		storageTuples = dataset.BlueNile(17, storageScaleN).Tuples
		storageStore = history.NewStore(dataset.BlueNileSchema())
		addInBatches(storageStore, storageTuples)
	})
}

// addInBatches feeds tuples to the store the way production does: in
// probe-answer-sized chunks, not one giant variadic call.
func addInBatches(s interface{ Add(...types.Tuple) int }, tuples []types.Tuple) {
	const batch = 8192
	for off := 0; off < len(tuples); off += batch {
		end := off + batch
		if end > len(tuples) {
			end = len(tuples)
		}
		s.Add(tuples[off:end]...)
	}
}

// liveHeap forces a full GC and returns the surviving heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// maxPauseMs scans the MemStats pause ring for the longest GC pause among
// cycles (fromGC, toGC].
func maxPauseMs(ms *runtime.MemStats, fromGC, toGC uint32) float64 {
	maxNs := uint64(0)
	for gc := fromGC + 1; gc <= toGC && toGC-gc < uint32(len(ms.PauseNs)); gc++ {
		if p := ms.PauseNs[(gc+255)%256]; p > maxNs {
			maxNs = p
		}
	}
	return float64(maxNs) / 1e6
}

// rowStore is the pre-columnar design at its most favorable: one cloned
// types.Tuple per row in an ID map, plus per-ordinal-attribute sorted slices
// that alias (not copy) the same tuples. Everything the columnar arena
// replaces — a million little Ord slices and Cat maps — is what this holds.
type rowStore struct {
	byID   map[int]types.Tuple
	sorted map[int][]types.Tuple
}

func (s *rowStore) Add(tuples ...types.Tuple) int {
	added := 0
	for _, t := range tuples {
		if _, seen := s.byID[t.ID]; seen {
			continue
		}
		s.byID[t.ID] = t.Clone()
		added++
	}
	return added
}

func (s *rowStore) seal(schema *types.Schema) {
	for _, attr := range schema.OrdinalIndexes() {
		lst := make([]types.Tuple, 0, len(s.byID))
		for _, t := range s.byID {
			lst = append(lst, t)
		}
		sortTuplesBy(lst, attr)
		s.sorted[attr] = lst
	}
}

func sortTuplesBy(lst []types.Tuple, attr int) {
	// Simple bottom-up merge sort keeps this self-contained; cost parity with
	// the columnar run construction is irrelevant — only liveMB is compared.
	tmp := make([]types.Tuple, len(lst))
	for width := 1; width < len(lst); width *= 2 {
		for lo := 0; lo < len(lst); lo += 2 * width {
			mid, hi := min(lo+width, len(lst)), min(lo+2*width, len(lst))
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if lst[i].Ord[attr] < lst[j].Ord[attr] ||
					(lst[i].Ord[attr] == lst[j].Ord[attr] && lst[i].ID <= lst[j].ID) {
					tmp[k] = lst[i]
					i++
				} else {
					tmp[k] = lst[j]
					j++
				}
				k++
			}
			copy(tmp[k:hi], lst[i:mid])
			copy(tmp[k+mid-i:hi], lst[j:hi])
			copy(lst[lo:hi], tmp[lo:hi])
		}
	}
}

func BenchmarkStorageScale(b *testing.B) {
	storageSetup()
	schema := dataset.BlueNileSchema()

	b.Run("load/impl=columnar", func(b *testing.B) {
		b.ReportAllocs()
		var liveMB, pauseMs float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			before := liveHeap()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			gcBefore := ms.NumGC
			b.StartTimer()
			s := history.NewStore(schema)
			addInBatches(s, storageTuples)
			b.StopTimer()
			after := liveHeap()
			runtime.ReadMemStats(&ms)
			liveMB = float64(after-before) / 1e6
			pauseMs = maxPauseMs(&ms, gcBefore, ms.NumGC)
			runtime.KeepAlive(s)
			b.StartTimer()
		}
		b.ReportMetric(liveMB, "liveMB")
		b.ReportMetric(pauseMs, "maxGCpauseMs")
	})

	b.Run("load/impl=rows", func(b *testing.B) {
		b.ReportAllocs()
		var liveMB, pauseMs float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			before := liveHeap()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			gcBefore := ms.NumGC
			b.StartTimer()
			s := &rowStore{byID: make(map[int]types.Tuple), sorted: make(map[int][]types.Tuple)}
			addInBatches(s, storageTuples)
			s.seal(schema)
			b.StopTimer()
			after := liveHeap()
			runtime.ReadMemStats(&ms)
			liveMB = float64(after-before) / 1e6
			pauseMs = maxPauseMs(&ms, gcBefore, ms.NumGC)
			runtime.KeepAlive(s)
			b.StartTimer()
		}
		b.ReportMetric(liveMB, "liveMB")
		b.ReportMetric(pauseMs, "maxGCpauseMs")
	})

	b.Run("rangescan", func(b *testing.B) {
		// Mid-market band plus a categorical filter: selective enough that
		// matching rows are a few percent, so the scan cost is dominated by
		// predicate evaluation over the columns.
		q := query.New().
			WithRange(dataset.BNPrice, types.ClosedInterval(5_000, 9_000)).
			WithCat("Clarity", "VS1")
		matched := 0
		sum := 0.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matched, sum = 0, 0
			v := storageStore.View()
			storageStore.ScanMatching(q, v, 0, func(row int) {
				matched++
				sum += v.Ord(row, dataset.BNCarat)
			})
		}
		b.StopTimer()
		if matched == 0 || sum == 0 {
			b.Fatal("range scan matched nothing")
		}
		b.ReportMetric(float64(matched), "rows/scan")
	})

	b.Run("getnext-warm", func(b *testing.B) {
		// "Warm" here means knowledge-warm: one cursor pays the crawl once,
		// then fresh cursors re-traverse the same region answered from the
		// columnar history and dense indexes — the regime a long-lived
		// service (and a snapshot-restored restart) actually runs in. The
		// measured Next calls should cost ~0 upstream queries (upstreamQ/op
		// reports the actual rate) and allocate only cursor-local scratch.
		const warmDepth = 64
		ds := dataset.BlueNile(3, storageScaleN)
		db := ds.DB()
		rank := ranking.MustLinear("depth+table",
			[]int{dataset.BNDepth, dataset.BNTable}, []float64{1, 1})
		e := core.NewEngine(db, core.Options{N: storageScaleN})
		newWarmCursor := func() core.Cursor {
			cur, err := e.NewCursor(query.New(), rank, core.Rerank)
			if err != nil {
				b.Fatal(err)
			}
			return cur
		}
		cur := newWarmCursor()
		for i := 0; i < warmDepth; i++ {
			if _, ok, err := cur.Next(); err != nil || !ok {
				b.Fatal("cursor drained during warmup")
			}
		}
		cur = newWarmCursor()
		depth := 0
		db.ResetCounter()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Stay inside the warmed region: recycle the cursor before it
			// reaches the crawl frontier.
			if depth == warmDepth-1 {
				b.StopTimer()
				cur = newWarmCursor()
				depth = 0
				b.StartTimer()
			}
			if _, ok, err := cur.Next(); err != nil || !ok {
				b.Fatal("cursor drained mid-benchmark")
			}
			depth++
		}
		b.StopTimer()
		b.ReportMetric(float64(db.QueryCount())/float64(b.N), "upstreamQ/op")
	})
}
