// Package colstore provides append-only, immutable columnar tuple storage:
// fixed-size blocks of contiguous column slices plus a shared string
// dictionary for categorical values. It backs internal/history's arena and
// sorted runs, replacing per-row types.Tuple structs (one Ord slice + one
// Cat map each) with a handful of large flat arrays.
//
// The row-struct types.Tuple stays the boundary type: views materialize rows
// back into tuples only at the edges (API returns, JSON encode, checkpoints),
// privately (View.Tuple) or once per row for every reader (View.Shared).
package colstore

import "sync"

// Dict interns categorical strings to dense uint32 symbols. Symbol 0 is
// reserved to mean "attribute absent from the tuple's Cat map"; real symbols
// start at 1. One Dict is shared per engine, so a value like "UA" is
// stored once no matter how many tuples carry it.
//
// Dict is safe for concurrent use.
type Dict struct {
	mu    sync.RWMutex
	syms  map[string]uint32
	strs  []string // strs[sym] = value; strs[0] is the absent sentinel
	bytes int64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{syms: make(map[string]uint32), strs: []string{""}}
}

// Intern returns the symbol for s, assigning a new one on first sight.
func (d *Dict) Intern(s string) uint32 {
	d.mu.RLock()
	sym, ok := d.syms[s]
	d.mu.RUnlock()
	if ok {
		return sym
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if sym, ok := d.syms[s]; ok {
		return sym
	}
	sym = uint32(len(d.strs))
	d.syms[s] = sym
	d.strs = append(d.strs, s)
	d.bytes += int64(len(s))
	return sym
}

// Lookup returns the symbol for s without interning. ok is false when s has
// never been interned — no stored row can carry it.
func (d *Dict) Lookup(s string) (sym uint32, ok bool) {
	d.mu.RLock()
	sym, ok = d.syms[s]
	d.mu.RUnlock()
	return sym, ok
}

// Value returns the string a symbol decodes to. Value(0) is "".
func (d *Dict) Value(sym uint32) string {
	d.mu.RLock()
	s := d.strs[sym]
	d.mu.RUnlock()
	return s
}

// Len reports the number of interned symbols (excluding the absent
// sentinel).
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.strs) - 1
	d.mu.RUnlock()
	return n
}

// Bytes reports the approximate string bytes retained by the dictionary.
func (d *Dict) Bytes() int64 {
	d.mu.RLock()
	b := d.bytes
	d.mu.RUnlock()
	return b
}
