package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span per call across a layer boundary. The
// layers nest in this order; a span's parent is a span of the layer above.
var layerOrder = []string{"client.op", "service.handle", "guard.topk", "remote.topk", "hidden.serve"}

func layerIndex(name string) int {
	for i, n := range layerOrder {
		if n == name {
			return i
		}
	}
	return -1
}

// span is one recorded interval. Start and End are nanoseconds since the
// recorder was created; Parent is the ID of the enclosing span of the layer
// above (-1 for a root) and Op numbers the client operation it belongs to.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The traced run has one
// client, so the operation in flight is a single global: every span begun
// while it is set belongs to that operation.
type recorder struct {
	base time.Time
	op   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

type spanToken int

func (r *recorder) begin(name string) spanToken {
	now := int64(time.Since(r.base))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, Parent: -1, Op: int(r.op.Load())})
	r.mu.Unlock()
	return spanToken(id)
}

func (r *recorder) end(t spanToken) {
	now := int64(time.Since(r.base))
	r.mu.Lock()
	r.spans[t].End = now
	r.mu.Unlock()
}

// finish returns the recorded spans with parent links filled in.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	linkParents(r.spans)
	return r.spans
}

// linkParents sets each span's Parent to the span of the layer above, in
// the same operation, that contains its start and began latest. One client
// means containment plus the operation number identifies the parent; with
// overlapping siblings (speculative probes) the latest starter is chosen.
func linkParents(spans []span) {
	type key struct{ op, layer int }
	byLayer := map[key][]int{}
	for i, s := range spans {
		byLayer[key{s.Op, layerIndex(s.Name)}] = append(byLayer[key{s.Op, layerIndex(s.Name)}], i)
	}
	for i := range spans {
		l := layerIndex(spans[i].Name)
		if l <= 0 {
			continue
		}
		best := -1
		for _, j := range byLayer[key{spans[i].Op, l - 1}] {
			p := spans[j]
			if p.Start <= spans[i].Start && spans[i].Start <= p.End && (best < 0 || p.Start > spans[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			spans[i].Parent = spans[best].ID
		}
	}
}

type interval struct{ lo, hi int64 }

// mergeIntervals returns the union of ivs as sorted disjoint intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := []interval{s[0]}
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func totalLen(merged []interval) int64 {
	var n int64
	for _, iv := range merged {
		n += iv.hi - iv.lo
	}
	return n
}

// intersect returns the intersection of two merged interval sets, merged.
func intersect(a, b []interval) []interval {
	var out []interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// layerTimes aggregates a traced pass per layer.
type layerTimes struct {
	// self[l] is the time, on the client's path, during which layer l was
	// the deepest layer active: per operation, the union of its spans
	// clipped to the layer above, minus the part the layer below covers.
	// The entries add up to the client.op total.
	self [5]int64
	// stray is span time outside the enclosing layer's spans: work a layer
	// did after its caller had stopped waiting (a stream handler winding
	// down once the client has read the final event). It is on no
	// operation's path and in no self time.
	stray int64
	// count[l] is the number of spans of layer l.
	count [5]int
	// rounds is the number of maximal groups of overlapping guard.topk
	// spans, summed over operations: sequential probe rounds.
	rounds int
}

func aggregateLayers(spans []span) layerTimes {
	var lt layerTimes
	byOp := map[int][][]interval{}
	for _, s := range spans {
		l := layerIndex(s.Name)
		if l < 0 {
			continue
		}
		lt.count[l]++
		if byOp[s.Op] == nil {
			byOp[s.Op] = make([][]interval, len(layerOrder))
		}
		byOp[s.Op][l] = append(byOp[s.Op][l], interval{s.Start, s.End})
	}
	for _, layers := range byOp {
		// top is the first layer the pass recorded (the direct pass has no
		// client.op or service.handle spans); it is clipped to nothing.
		top := 0
		for top < len(layers)-1 && len(layers[top]) == 0 {
			top++
		}
		var above []interval
		for l := top; l < len(layers); l++ {
			merged := mergeIntervals(layers[l])
			if l == layerIndex("guard.topk") {
				lt.rounds += len(merged)
			}
			clipped := merged
			if l > top {
				clipped = intersect(above, merged)
				lt.stray += totalLen(merged) - totalLen(clipped)
				lt.self[l-1] -= totalLen(clipped)
			}
			lt.self[l] += totalLen(clipped)
			above = clipped
		}
	}
	return lt
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
