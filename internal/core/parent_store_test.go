package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/segment"
	"repro/internal/types"
)

// parentStore is a store written before the segment codec replaced
// encoding/json (internal/segment/testdata/parent-store/README.md says how).
var parentStore = filepath.Join("..", "segment", "testdata", "parent-store")

// jsonDeltas decodes a store's committed deltas with encoding/json, the
// reference the codec is held to: journal lines after the header, inline
// deltas and segment commits in order. heats counts the deltas whose raw
// JSON carries a "heat" member.
func jsonDeltas(t *testing.T, dir string) (out []*segment.Delta, heats int) {
	t.Helper()
	journal, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	var raw []json.RawMessage
	for _, line := range bytes.Split(bytes.TrimSuffix(journal, []byte("\n")), []byte("\n"))[1:] {
		var rec struct {
			Kind  string          `json:"kind"`
			Delta json.RawMessage `json:"delta"`
			File  string          `json:"file"`
		}
		if err := json.Unmarshal(line[9:], &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Kind {
		case "delta":
			raw = append(raw, rec.Delta)
		case "segment":
			body, err := os.ReadFile(filepath.Join(dir, "segments", rec.File))
			if err != nil {
				t.Fatal(err)
			}
			var sf struct {
				Deltas []json.RawMessage `json:"deltas"`
			}
			if err := json.Unmarshal(body, &sf); err != nil {
				t.Fatal(err)
			}
			raw = append(raw, sf.Deltas...)
		default:
			t.Fatalf("journal record kind %q", rec.Kind)
		}
	}
	for _, r := range raw {
		var d *segment.Delta
		var members map[string]json.RawMessage
		if err := json.Unmarshal(r, &d); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(r, &members); err != nil {
			t.Fatal(err)
		}
		if _, ok := members["heat"]; ok {
			heats++
		}
		out = append(out, d)
	}
	return out, heats
}

// factsExport lists the fact index's facts, most recently used first.
func factsExport(x *factIndex) []*fact {
	var out []*fact
	for f := x.head; f != nil; f = f.older {
		out = append(out, f)
	}
	return out
}

// TestReplayParentWrittenStore: a data dir written before the codec replays
// through it (no record dropped, so no journal line was taken for a torn
// tail) into the state the same files decoded by encoding/json produce —
// history rows, facts with their kind and epoch, crawled regions and the
// epoch. The request-heat captures its deltas carry are read past.
func TestReplayParentWrittenStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(parentStore)); err != nil {
		t.Fatal(err)
	}
	db, _ := persistTestWorld(t, 71)
	newEngine := func() *Engine { return NewEngine(db, Options{N: 400}) }
	got := newEngine()
	p := attachStore(t, got, dir, segment.Options{CompactAfter: -1})
	if st := p.store.Stats(); st.DroppedRecords != 0 || st.ReplayedDeltas != 3 {
		t.Fatalf("replayed %d deltas and dropped %d records, want 3 and 0", st.ReplayedDeltas, st.DroppedRecords)
	}
	want := newEngine()
	deltas, heats := jsonDeltas(t, parentStore)
	for _, d := range deltas {
		if err := want.applyDelta(d); err != nil {
			t.Fatal(err)
		}
	}

	if got.History().Rows() != want.History().Rows() {
		t.Fatalf("history holds %d rows, want %d", got.History().Rows(), want.History().Rows())
	}
	all := make([]uint32, want.History().Rows())
	for i := range all {
		all[i] = uint32(i)
	}
	if !slices.EqualFunc(got.History().RowTuples(all), want.History().RowTuples(all), types.Tuple.Equal) {
		t.Fatal("history rows differ")
	}
	gf, wf := factsExport(got.facts), factsExport(want.facts)
	if len(gf) != len(wf) {
		t.Fatalf("%d facts, want %d", len(gf), len(wf))
	}
	var partial, stale int
	for i := range wf {
		g, w := gf[i], wf[i]
		if g.key != w.key || g.partial != w.partial || g.epoch != w.epoch || !slices.Equal(g.rows, w.rows) {
			t.Fatalf("fact %d: %q partial=%v epoch %d rows %v, want %q partial=%v epoch %d rows %v",
				i, g.key, g.partial, g.epoch, g.rows, w.key, w.partial, w.epoch, w.rows)
		}
		if w.partial {
			partial++
		}
		if w.epoch < want.Epoch() {
			stale++
		}
	}
	assertSameRegions(t, got, want)
	if got.Epoch() != want.Epoch() {
		t.Fatalf("epoch %d, want %d", got.Epoch(), want.Epoch())
	}
	// The fixture holds what it is meant to cover.
	if partial == 0 || stale == 0 || want.Epoch() < 2 || heats == 0 || len(crawledExport(want.crawled)) == 0 {
		t.Fatalf("fixture lacks a case: %d partial facts, %d stale facts, epoch %d, %d deltas with heat, %d crawled regions",
			partial, stale, want.Epoch(), heats, len(crawledExport(want.crawled)))
	}
}
