// Package acquire implements proactive knowledge acquisition: mining the
// recent request stream for hot query windows and warming them from idle
// capacity at strictly lower priority than user traffic.
//
// The package has two halves. The Sketch (this file) is a bounded,
// exponentially-decayed heat histogram over each ordinal attribute's domain:
// request handlers feed it the windows users actually query (a few atomic-ish
// map updates per request — no upstream work, no allocation beyond the fixed
// grid), and it answers "which exact windows are hot right now?". The
// Acquirer (acquire.go) periodically drains that answer and crawls the
// winners through hooks wired up by the serving tier, yielding to user
// traffic at every probe.
//
// Heat is tracked on a fixed coarse grid (cells per attribute), but each cell
// additionally remembers an exact representative window by weighted
// Boyer–Moore majority voting. Exactness matters: probe-cache keys are
// canonical query strings, so warming "approximately the hot window" buys
// nothing — the acquirer must replay the byte-identical window the users
// issue. Zipf-skewed traffic concentrates most of a cell's mass on one
// window, which is precisely the regime where majority voting converges.
package acquire

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

const (
	// defaultGridCells is the per-attribute heat resolution.
	defaultGridCells = 32
	// defaultHalfLife is the heat decay half-life: a window untouched for
	// one half-life keeps half its heat.
	defaultHalfLife = 5 * time.Minute
	// decayQuantum batches the lazy decay: heat decays only when at least
	// this much time has passed since the last decay pass, so hot loops
	// don't recompute exponentials per observation.
	decayQuantum = time.Second
)

// Window is one exact query window on one ordinal attribute: the closed
// interval [Lo, Hi] as users issue it.
type Window struct {
	Attr int     `json:"attr"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// Candidate is a hot window candidate ranked by decayed heat.
type Candidate struct {
	Window Window
	Heat   float64
}

// cell is one grid bucket: decayed heat plus the Boyer–Moore majority
// representative of the exact windows observed in it.
type cell struct {
	heat   float64
	rep    Window
	votes  float64
	hasRep bool
}

// sketchAttr is the heat grid of one ordinal attribute.
type sketchAttr struct {
	attr  int // schema attribute index
	dom   types.Domain
	cells []cell
}

// Sketch is the bounded request-heat sketch of one engine. Safe for
// concurrent use. The zero value is not usable; build with NewSketch.
type Sketch struct {
	mu        sync.Mutex
	attrs     []sketchAttr
	byAttr    map[int]int // schema attr index -> attrs position
	halfLife  time.Duration
	lastDecay time.Time
	now       func() time.Time

	// observations counts Observe calls for the engine's lifetime; the
	// persistence layer uses it as a cheap dirty check between checkpoints.
	observations atomic.Int64
}

// NewSketch builds an empty sketch over the schema's ordinal attributes.
func NewSketch(schema *types.Schema) *Sketch {
	s := &Sketch{
		byAttr:   make(map[int]int),
		halfLife: defaultHalfLife,
		now:      time.Now,
	}
	for _, a := range schema.OrdinalIndexes() {
		s.byAttr[a] = len(s.attrs)
		s.attrs = append(s.attrs, sketchAttr{
			attr:  a,
			dom:   schema.Domain(a),
			cells: make([]cell, defaultGridCells),
		})
	}
	s.lastDecay = s.now()
	return s
}

// SetClock injects a time source (tests). Call before concurrent use.
func (s *Sketch) SetClock(now func() time.Time) {
	s.mu.Lock()
	s.now = now
	s.lastDecay = now()
	s.mu.Unlock()
}

// SetHalfLife overrides the decay half-life (non-positive keeps the default).
func (s *Sketch) SetHalfLife(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.halfLife = d
	s.mu.Unlock()
}

// cellFor maps a window midpoint to a grid cell index, clamped to the domain.
func (sa *sketchAttr) cellFor(lo, hi float64) int {
	mid := sa.dom.Clamp((lo + hi) / 2)
	w := sa.dom.Width()
	if w <= 0 {
		return 0
	}
	i := int((mid - sa.dom.Min) / w * float64(len(sa.cells)))
	if i < 0 {
		i = 0
	}
	if i >= len(sa.cells) {
		i = len(sa.cells) - 1
	}
	return i
}

// decayLocked applies the pending exponential decay to every cell. Caller
// holds s.mu. The decay is lazy and batched: nothing happens until at least
// decayQuantum has elapsed since the previous pass.
func (s *Sketch) decayLocked() {
	now := s.now()
	dt := now.Sub(s.lastDecay)
	if dt < decayQuantum {
		return
	}
	s.lastDecay = now
	f := math.Exp2(-dt.Seconds() / s.halfLife.Seconds())
	for ai := range s.attrs {
		cells := s.attrs[ai].cells
		for ci := range cells {
			c := &cells[ci]
			c.heat *= f
			c.votes *= f
			if c.heat < 1e-6 {
				*c = cell{}
			}
		}
	}
}

// Observe records one user request window [lo, hi] on ordinal attribute
// attr. Unknown attributes and unbounded or inverted windows are ignored.
// The cost is one mutex acquisition and a handful of float ops — safe to
// call from the request path.
func (s *Sketch) Observe(attr int, lo, hi float64) {
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pos, ok := s.byAttr[attr]
	if !ok {
		return
	}
	s.decayLocked()
	sa := &s.attrs[pos]
	c := &sa.cells[sa.cellFor(lo, hi)]
	c.heat++
	w := Window{Attr: attr, Lo: lo, Hi: hi}
	switch {
	case !c.hasRep:
		c.rep, c.votes, c.hasRep = w, 1, true
	case c.rep == w:
		c.votes++
	default:
		c.votes--
		if c.votes < 0 {
			c.rep, c.votes = w, 1
		}
	}
	s.observations.Add(1)
}

// Observations returns the lifetime count of observed windows.
func (s *Sketch) Observations() int64 { return s.observations.Load() }

// Candidates returns up to max hot windows ordered by decayed heat,
// hottest first. Ties break deterministically by (attr, window) so tests
// and replays are stable.
func (s *Sketch) Candidates(max int) []Candidate {
	if max <= 0 {
		return nil
	}
	s.mu.Lock()
	s.decayLocked()
	var out []Candidate
	for ai := range s.attrs {
		for ci := range s.attrs[ai].cells {
			c := &s.attrs[ai].cells[ci]
			if c.hasRep && c.heat > 0 {
				out = append(out, Candidate{Window: c.rep, Heat: c.heat})
			}
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Heat != out[j].Heat {
			return out[i].Heat > out[j].Heat
		}
		if out[i].Window.Attr != out[j].Window.Attr {
			return out[i].Window.Attr < out[j].Window.Attr
		}
		return out[i].Window.Lo < out[j].Window.Lo
	})
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// HeatExport is the JSON-serializable form of a sketch, embedded in
// persistence deltas so acquisition heat survives restarts.
type HeatExport struct {
	HalfLifeSec float64    `json:"halfLifeSec,omitempty"`
	Attrs       []AttrHeat `json:"attrs,omitempty"`
}

// AttrHeat is one attribute's non-empty heat cells.
type AttrHeat struct {
	Attr  int        `json:"attr"`
	Cells []CellHeat `json:"cells"`
}

// CellHeat is one grid cell: its decayed heat and exact representative
// window.
type CellHeat struct {
	Cell  int     `json:"cell"`
	Heat  float64 `json:"heat"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Votes float64 `json:"votes"`
}

// Export captures the sketch's current decayed state. Returns nil when the
// sketch holds no heat (so callers can omit the section entirely).
func (s *Sketch) Export() *HeatExport {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decayLocked()
	out := &HeatExport{HalfLifeSec: s.halfLife.Seconds()}
	for ai := range s.attrs {
		sa := &s.attrs[ai]
		var cells []CellHeat
		for ci := range sa.cells {
			c := &sa.cells[ci]
			if c.hasRep && c.heat > 0 {
				cells = append(cells, CellHeat{
					Cell: ci, Heat: c.heat,
					Lo: c.rep.Lo, Hi: c.rep.Hi, Votes: c.votes,
				})
			}
		}
		if len(cells) > 0 {
			out.Attrs = append(out.Attrs, AttrHeat{Attr: sa.attr, Cells: cells})
		}
	}
	if len(out.Attrs) == 0 {
		return nil
	}
	return out
}

// Import merges an exported heat state into the sketch: each imported cell's
// heat is adopted when it exceeds the live cell's (last-wins across replayed
// deltas, additive-free so replaying the same delta twice is idempotent).
// Unknown attributes and out-of-range cells are ignored, so a sketch built
// for a different schema degrades to a no-op instead of corrupting state.
// No offline decay is applied: imported heat is treated as current.
func (s *Sketch) Import(h *HeatExport) {
	if h == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastDecay = s.now()
	for _, ah := range h.Attrs {
		pos, ok := s.byAttr[ah.Attr]
		if !ok {
			continue
		}
		sa := &s.attrs[pos]
		for _, ch := range ah.Cells {
			if ch.Cell < 0 || ch.Cell >= len(sa.cells) || ch.Heat <= 0 {
				continue
			}
			c := &sa.cells[ch.Cell]
			if ch.Heat > c.heat {
				c.heat = ch.Heat
				c.rep = Window{Attr: ah.Attr, Lo: ch.Lo, Hi: ch.Hi}
				c.votes = ch.Votes
				c.hasRep = true
			}
		}
	}
}
