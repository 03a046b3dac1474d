// Fuzz targets for what reads persisted knowledge back: applyDelta, the one
// decoder of journal records, and the canonical probe key a replayed fact is
// filed under.

package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"

	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/types"
)

// crawledOpMalformed says why applyDelta must refuse a crawled-region record
// given an arena of rows rows ("" when it is well formed): the shapes a
// region index cannot hold or a probe record's fields cannot mean for one.
func crawledOpMalformed(op segment.ProbeOp, schema *types.Schema, rows int) string {
	switch {
	case op.Overflow:
		return "crawled and overflow both set"
	case len(op.Ranges) == 0:
		return "no ranges"
	case len(op.Cats) > 0:
		return "categorical predicates"
	}
	for i, r := range op.Ranges {
		lo, hi := float64(r.Lo), float64(r.Hi)
		switch {
		case math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0):
			return "non-finite bound"
		case r.Attr < 0 || r.Attr >= schema.Len() || schema.Attr(r.Attr).Kind != types.Ordinal:
			return "attribute not ordinal"
		case i > 0 && r.Attr <= op.Ranges[i-1].Attr:
			return "attributes repeated or out of order"
		}
	}
	for _, row := range op.Rows {
		if int(row) >= rows {
			return "row beyond the arena"
		}
	}
	return ""
}

// FuzzApplyDelta feeds decoded deltas to Engine.applyDelta: no input panics;
// a delta it accepts carries no malformed crawled-region record (a row at or
// past the arena, no ranges, a non-finite or NaN bound, repeated attributes,
// crawled and overflow both set); and whatever the verdict, every region the
// indexes hold afterwards is a finite box over rows the arena has.
func FuzzApplyDelta(f *testing.F) {
	db, _ := newTestDB(f, rand.New(rand.NewSource(5)), 2, 40, 10, false, nil)
	schema := db.Schema()
	hist := []segment.Tuple{{ID: 1, Ord: []float64{1, 2, 0}}, {ID: 2, Ord: []float64{3, 4, 0}, Cat: map[string]string{"cat": "x"}}}
	rng := func(attr int, lo, hi float64) segment.ProbeRange {
		return segment.ProbeRange{Attr: attr, Lo: segment.Bound(lo), Hi: segment.Bound(hi)}
	}
	for _, ops := range [][]segment.ProbeOp{
		{{Ranges: []segment.ProbeRange{rng(0, 0, 5)}, Rows: []uint32{0, 1}, Crawled: true, Epoch: 1},
			{Ranges: []segment.ProbeRange{rng(0, 0, 5), rng(1, 1, 4)}, Rows: []uint32{1}, Crawled: true},
			{Ranges: []segment.ProbeRange{rng(1, 2, math.Inf(1))}, Cats: map[string]string{"cat": "x"}, Rows: []uint32{1, 0}, Overflow: true}},
		{{Ranges: []segment.ProbeRange{rng(0, 0, 5)}, Rows: []uint32{2}, Crawled: true}},
		{{Rows: []uint32{0}, Crawled: true}},
		{{Ranges: []segment.ProbeRange{rng(0, math.Inf(-1), 5)}, Crawled: true}},
		{{Ranges: []segment.ProbeRange{rng(0, 0, 1), rng(1, math.NaN(), 5)}, Crawled: true}},
		{{Ranges: []segment.ProbeRange{rng(1, 0, 1), rng(1, 0, 5)}, Crawled: true}},
		{{Ranges: []segment.ProbeRange{rng(0, 0, 1)}, Rows: []uint32{0}, Crawled: true, Overflow: true}},
		{{Ranges: []segment.ProbeRange{rng(2, 0, 1)}, Crawled: true}},
	} {
		data, err := json.Marshal(&segment.Delta{HistHi: len(hist), Hist: hist, Probes: ops, Epoch: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d segment.Delta
		if json.Unmarshal(data, &d) != nil {
			return
		}
		e := NewEngine(db, Options{N: 40})
		err := e.applyDelta(&d)
		rows := e.History().Rows()
		if err == nil {
			for i, op := range d.Probes {
				if why := crawledOpMalformed(op, schema, rows); op.Crawled && why != "" {
					t.Fatalf("accepted crawled record %d (%s): %+v", i, why, op)
				}
			}
		}
		held := func(box query.Box, cited []uint32) {
			t.Helper()
			for _, iv := range box.Dims {
				if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
					t.Fatalf("index holds region %v (apply error: %v)", box, err)
				}
			}
			for _, row := range cited {
				if int(row) >= rows {
					t.Fatalf("region %v cites row %d of %d (apply error: %v)", box, row, rows, err)
				}
			}
		}
		for _, f := range crawledExport(e.crawled) {
			held(rangesBox(f.q), f.rows)
		}
	})
}

// FuzzProbeKeyRoundTrip: the canonical key is what a replayed fact is filed
// under, so a probe's key must survive the journal. A query learned on the
// live path, captured by buildDelta, encoded as JSON and replayed by
// applyDelta yields a fact under exactly the key query.Query.AppendString
// gives the original — whatever its bounds (infinite, NaN, -0) and its
// categorical strings. Strings are valid UTF-8: the journal is JSON, and so
// is every request that reaches the service.
func FuzzProbeKeyRoundTrip(f *testing.F) {
	db, _ := newTestDB(f, rand.New(rand.NewSource(6)), 2, 40, 10, false, nil)
	f.Add(uint8(1), 10.0, 12.5, 0.0, 0.0, uint8(0), "cat", "x")
	f.Add(uint8(3|4|8), math.Inf(-1), 50.0, 1e-300, math.Inf(1), uint8(1|2), "", "")
	f.Add(uint8(2|16), 0.0, 0.0, math.Copysign(0, -1), math.NaN(), uint8(1), "colour", "bl\"ue\\\n")
	f.Fuzz(func(t *testing.T, shape uint8, lo0, hi0, lo1, hi1 float64, cats uint8, name, value string) {
		if !utf8.ValidString(name) || !utf8.ValidString(value) {
			return
		}
		q := query.New()
		if shape&1 != 0 {
			q = q.WithRange(0, types.Interval{Lo: lo0, Hi: hi0, LoOpen: shape&4 != 0, HiOpen: shape&8 != 0})
		}
		if shape&2 != 0 {
			q = q.WithRange(1, types.Interval{Lo: lo1, Hi: hi1, LoOpen: shape&16 != 0, HiOpen: shape&32 != 0})
		}
		if cats&1 != 0 {
			q = q.WithCat(name, value)
		}
		if cats&2 != 0 {
			q = q.WithCat("cat", "y")
		}
		if q.Empty() {
			return // answered locally: no fact, nothing journaled
		}
		e1 := NewEngine(db, Options{N: 40})
		p := &Persister{e: e1} // records and builds deltas; no store behind it
		e1.persist.Store(p)
		if _, _, err := e1.NewSession().probe(q); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(p.buildDelta(0, e1.History().Rows(), p.ops))
		if err != nil {
			t.Fatal(err)
		}
		var d segment.Delta
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
		e2 := NewEngine(db, Options{N: 40})
		if err := e2.applyDelta(&d); err != nil {
			t.Fatalf("replay of %s: %v", data, err)
		}
		key := string(q.AppendString(nil))
		if len(e2.facts.byKey) != 1 || e2.facts.byKey[key] == nil {
			t.Fatalf("probe %q replayed under keys %v (journal %s)", key, e2.facts.byKey, data)
		}
	})
}
