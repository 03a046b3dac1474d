// Package segment is the crash-safe persistence layer for accumulated
// reranking knowledge: immutable, fingerprinted segment files plus an
// append-only commit journal, in the style of a data lake's object store
// (immutable data objects + commit log + compaction).
//
// It is the only persistence format: everything an engine knows reaches
// disk as a Delta appended here (core.Persister) and comes back through
// Replay. A portable export of a store is a copy of its directory.
//
// # Why incremental
//
// The engine's whole value is knowledge accumulated from a rate-limited
// upstream. Writing it only at graceful shutdown would lose everything
// since the last clean drain on a crash, and rewriting all of it on every
// save is a stop-the-world cost that grows with the knowledge itself. Each
// checkpoint therefore commits only the delta since the previous one,
// serving traffic never blocks on a full rewrite, and recovery replays the
// committed prefix exactly.
//
// # On-disk layout
//
//	<dir>/journal              append-only commit log (CRC-framed JSON lines)
//	<dir>/segments/<seq>-<sha>.seg   immutable segment files
//	<dir>/quarantine/          corrupt or foreign files moved aside at open
//
// The journal is the single source of truth: a segment file exists logically
// only once a journal record referencing it (by name and content SHA-256) is
// durable. Small deltas are inlined directly into the journal record; large
// ones are sealed into a segment file first, then committed by reference.
// Every append is fsynced, and every file write goes through WriteFileAtomic
// (temp + fsync + rename + parent-directory fsync), so a crash at any point
// leaves either the previous committed state or the new one — never a torn
// or empty file that parses as truth.
//
// # Recovery semantics
//
// Open scans the journal and keeps the longest valid prefix: a torn tail
// (partial line, bad CRC, invalid JSON — the classic crash-mid-append
// shapes) is truncated away with a logged warning. Replay walks the
// committed records in order; a referenced segment file that is missing or
// fails its SHA-256 check is quarantined and replay stops at the last record
// before it — knowledge committed before the corruption survives intact,
// and the journal is rewritten to that valid prefix so disk state and
// replayed state agree. A fingerprint mismatch (the store belongs to a
// different upstream deployment) quarantines the whole store and starts
// fresh rather than serving another corpus's knowledge.
//
// # Compaction
//
// The journal and segment count grow with checkpoint count, not knowledge
// size, so once enough records accumulate the store folds every committed
// delta into one segment file and rewrites the journal to a single commit
// record. Compaction is a pure fold of already-committed deltas — it never
// reads live engine state — so it commutes with concurrent serving and a
// crash mid-compaction recovers to either the old record chain or the new
// single record.
package segment

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Format is the segment/journal format generation this package reads and
// writes. A store written under any other generation is quarantined whole at
// open and the namespace starts cold. Generation 2 changed what a probe
// record carries: the structured query and arena rows (ProbeOp) instead of
// the canonical key string and tuple IDs. Generation 3 added overflow pages
// to the probe records (ProbeOp.Overflow), which a generation-2 reader would
// replay as complete answers. Generation 4 records a crawled region as a
// probe record too (ProbeOp.Crawled, citing arena rows) instead of two
// region record kinds that named tuples by ID.
const Format = 4

// Fingerprint identifies the upstream deployment a store's knowledge came
// from. Cached probe answers replay one specific upstream's responses
// verbatim and dense regions assert completeness against one specific
// corpus, so a store is only replayed into an engine whose upstream matches.
type Fingerprint struct {
	// Schema is the upstream's attribute names, in order.
	Schema []string `json:"schema"`
	// UpstreamK is the upstream interface's system k (0 = unknown).
	UpstreamK int `json:"upstreamK,omitempty"`
	// UpstreamRanker names the upstream's system ranking ("" = unknown,
	// e.g. remote upstreams that don't expose it).
	UpstreamRanker string `json:"upstreamRanker,omitempty"`
}

// Matches reports whether two fingerprints describe the same upstream
// deployment. Schemas must be identical; k and ranker are compared only when
// both sides know them (an unknown side skips that comparison, mirroring the
// snapshot loader's fingerprint gate).
func (f Fingerprint) Matches(other Fingerprint) bool {
	if len(f.Schema) != len(other.Schema) {
		return false
	}
	for i := range f.Schema {
		if f.Schema[i] != other.Schema[i] {
			return false
		}
	}
	if f.UpstreamK != 0 && other.UpstreamK != 0 && f.UpstreamK != other.UpstreamK {
		return false
	}
	if f.UpstreamRanker != "" && other.UpstreamRanker != "" && f.UpstreamRanker != other.UpstreamRanker {
		return false
	}
	return true
}

// Tuple is one serialized tuple payload.
type Tuple struct {
	ID  int               `json:"id"`
	Ord []float64         `json:"ord"`
	Cat map[string]string `json:"cat,omitempty"`
}

// Bound is one endpoint of a range predicate. A crawled region's bounds are
// always finite, but a probe may be half-unbounded — "everything after the
// cursor" — and JSON numbers cannot carry an infinity, so non-finite values
// travel as the strings "+Inf", "-Inf" and "NaN".
type Bound float64

// MarshalJSON implements json.Marshaler.
func (b Bound) MarshalJSON() ([]byte, error) {
	f := float64(b)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(f, 'g', -1, 64)), nil
	}
	return json.Marshal(f)
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bound) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		str, err := strconv.Unquote(string(data))
		if err != nil {
			return fmt.Errorf("segment: bound %s: %w", data, err)
		}
		f, err := strconv.ParseFloat(str, 64)
		if err != nil || !(math.IsInf(f, 0) || math.IsNaN(f)) {
			return fmt.Errorf("segment: bound %s is not a non-finite float", data)
		}
		*b = Bound(f)
		return nil
	}
	return json.Unmarshal(data, (*float64)(b))
}

// ProbeRange is one range predicate of a recorded probe query.
type ProbeRange struct {
	Attr   int   `json:"attr"`
	Lo     Bound `json:"lo"`
	Hi     Bound `json:"hi"`
	LoOpen bool  `json:"loOpen,omitempty"`
	HiOpen bool  `json:"hiOpen,omitempty"`
}

// ProbeOp is one recorded coverage fact — the one knowledge record a delta
// carries: a query box and the history arena rows the upstream returned for
// it. For a probe the rows are its page in upstream rank order; for a crawled
// region (Crawled) they are every tuple of the box, and the ranges — always
// finite, with no categorical predicate beside them — are the region's
// attributes and dimensions: one range is a 1D dense region, more are a box
// of the MD index over that attribute set. The query is carried in structured
// form (ranges in ascending attribute order) so replay can index a complete
// fact by what its box contains, not only by exact match. Rows always lie
// below the HistHi of the delta that carries the op: a probe's page and a
// region's tuples enter the arena before their record is queued.
type ProbeOp struct {
	Ranges []ProbeRange      `json:"ranges,omitempty"`
	Cats   map[string]string `json:"cats,omitempty"`
	Rows   []uint32          `json:"rows"`
	// Overflow marks an overflow page: the rows are the top-k of the box, not
	// all of it, so the fact replays for the identical probe only.
	Overflow bool `json:"overflow,omitempty"`
	// Crawled marks a fully crawled dense region: the rows are all of the box
	// in no particular order, and replay inserts them into the dense index
	// through the live insert path. Never set together with Overflow.
	Crawled bool `json:"crawled,omitempty"`
	// Epoch is the knowledge epoch the answer was learned under.
	Epoch int64 `json:"epoch,omitempty"`
}

// Delta is one checkpoint's knowledge increment: the history arena rows
// appended since the previous checkpoint and the coverage facts (probe
// answers and crawled regions) recorded since then, in the order they were
// learned. Replaying all committed deltas in order through the engine's live
// insert paths reconstructs the knowledge exactly.
type Delta struct {
	// HistLo/HistHi bound the history arena rows this delta carries:
	// Hist[i] is arena row HistLo+i, and HistHi == HistLo + len(Hist).
	// Deltas commit contiguous, non-overlapping row ranges.
	HistLo int       `json:"histLo"`
	HistHi int       `json:"histHi"`
	Hist   []Tuple   `json:"hist,omitempty"`
	Probes []ProbeOp `json:"probes,omitempty"`
	// Epoch, when non-zero, is the namespace knowledge epoch at capture
	// time, committed only by checkpoints that observed an epoch bump.
	// Replay restores it forward-only (epochs never move backward).
	Epoch int64 `json:"epoch,omitempty"`
	// Queries is the engine's lifetime upstream-query counter at capture
	// time (informational; surfaced by stats, not restored).
	Queries int64 `json:"queries"`
}

// Empty reports whether the delta carries no knowledge at all. A delta
// holding only an epoch bump counts as non-empty: it is knowledge worth
// committing on its own (an un-persisted bump would resurrect stale
// knowledge as current after a restart).
func (d *Delta) Empty() bool {
	return len(d.Hist) == 0 && len(d.Probes) == 0 && d.Epoch == 0
}

// segmentFile is the serialized form of one immutable segment: a batch of
// deltas in commit order under the store's fingerprint.
type segmentFile struct {
	Format      int         `json:"format"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Deltas      []*Delta    `json:"deltas"`
}

// encodeSegment serializes a segment file body (codec.go).
func encodeSegment(fp Fingerprint, deltas []*Delta) ([]byte, error) {
	e := getEncoder()
	e.segmentFile(&fp, deltas)
	return e.result(0)
}

// decodeSegment parses and validates a segment file body against the
// store's fingerprint.
func decodeSegment(data []byte, fp Fingerprint) (*segmentFile, error) {
	var sf segmentFile
	if err := decode(data, func(d *decoder) { d.segmentFile(&sf) }); err != nil {
		return nil, fmt.Errorf("segment: decode: %w", err)
	}
	if sf.Format != Format {
		return nil, fmt.Errorf("segment: format %d, want %d", sf.Format, Format)
	}
	if !sf.Fingerprint.Matches(fp) {
		return nil, fmt.Errorf("segment: fingerprint mismatch")
	}
	return &sf, nil
}
