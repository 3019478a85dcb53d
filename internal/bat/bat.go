// Package bat provides the column-storage primitives of the reproduction:
// a small Go analogue of MonetDB's Binary Association Tables. The paper's
// performance argument rests on three BAT properties, all preserved here:
//
//   - void head columns: a densely ascending key (0,1,2,...) is never
//     materialized — a Go slice indexed by the dense key is exactly that;
//   - positional select and positional join: lookup of a void key is an
//     array access, one CPU-level operation, not a B-tree descent;
//   - differential (delta) lists: updates are collected out of place and
//     propagated to the base column at commit.
//
// It backs the paper's comparison baselines (Figure 9) — the read-only
// rostore and the naive oracle — which only benchmarks and tests import,
// and is deliberately not part of the served store.
package bat

import (
	"fmt"
	"sort"
)

// PositionalJoin implements the MonetDB positional join over a void-keyed
// inner column: out[i] = inner[outer[i]]. It is the access pattern queries
// use to hop over foreign keys in the document schema (Figure 5: "All
// tables use a void column as key for efficient positional access").
func PositionalJoin(outer []int32, inner []int32) []int32 {
	out := make([]int32, len(outer))
	for i, o := range outer {
		out[i] = inner[o]
	}
	return out
}

// PositionalSelect returns the dense keys k in [0,len(col)) whose value
// satisfies lo <= col[k] <= hi.
func PositionalSelect(col []int32, lo, hi int32) []int32 {
	var out []int32
	for k, v := range col {
		if v >= lo && v <= hi {
			out = append(out, int32(k))
		}
	}
	return out
}

// InsertInt32 inserts vals into s at index i, shifting the tail. It is the
// materialized-column insert whose O(N) cost the naive baseline pays on
// every structural update.
func InsertInt32(s []int32, i int, vals ...int32) []int32 {
	if i < 0 || i > len(s) {
		panic(fmt.Sprintf("bat: insert index %d out of range [0,%d]", i, len(s)))
	}
	s = append(s, vals...)
	copy(s[i+len(vals):], s[i:])
	copy(s[i:], vals)
	return s
}

// DeleteInt32 removes n elements of s starting at index i.
func DeleteInt32(s []int32, i, n int) []int32 {
	return append(s[:i], s[i+n:]...)
}

// InsertInt16 is InsertInt32 for 16-bit columns (the level column).
func InsertInt16(s []int16, i int, vals ...int16) []int16 {
	if i < 0 || i > len(s) {
		panic(fmt.Sprintf("bat: insert index %d out of range [0,%d]", i, len(s)))
	}
	s = append(s, vals...)
	copy(s[i+len(vals):], s[i:])
	copy(s[i:], vals)
	return s
}

// DeleteInt16 removes n elements of s starting at index i.
func DeleteInt16(s []int16, i, n int) []int16 {
	return append(s[:i], s[i+n:]...)
}

// InsertUint8 is InsertInt32 for byte columns (the kind column).
func InsertUint8(s []uint8, i int, vals ...uint8) []uint8 {
	if i < 0 || i > len(s) {
		panic(fmt.Sprintf("bat: insert index %d out of range [0,%d]", i, len(s)))
	}
	s = append(s, vals...)
	copy(s[i+len(vals):], s[i:])
	copy(s[i:], vals)
	return s
}

// DeleteUint8 removes n elements of s starting at index i.
func DeleteUint8(s []uint8, i, n int) []uint8 {
	return append(s[:i], s[i+n:]...)
}

// Dict is a dictionary-encoded string column: the paper's prop table
// ("holding all unique attribute values (as strings)") and the text pools
// are Dicts. Ids are dense and stable, so value columns store int32 ids
// and equality tests on values reduce to integer comparisons.
type Dict struct {
	vals []string
	ids  map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// Put interns s and returns its id.
func (d *Dict) Put(s string) int32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.ids[s] = id
	return id
}

// Get returns the string for id.
func (d *Dict) Get(id int32) string { return d.vals[id] }

// Lookup returns the id for s without interning.
func (d *Dict) Lookup(s string) (int32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Len returns the number of distinct values.
func (d *Dict) Len() int { return len(d.vals) }

// Clone returns an independent copy.
func (d *Dict) Clone() *Dict {
	c := &Dict{
		vals: append([]string(nil), d.vals...),
		ids:  make(map[string]int32, len(d.ids)),
	}
	for k, v := range d.ids {
		c.ids[k] = v
	}
	return c
}

// Cell is one deferred in-place update of a delta list.
type Cell struct {
	Pos int32 // dense key of the updated tuple
	Old int32 // value before the update (for revert and WAL undo)
	New int32 // value after the update
}

// Delta is a differential list over an int32 column: MonetDB keeps such
// lists per transaction and propagates them to the base BAT at commit
// (Section 3.2: "MonetDB keeps delta-tables (differential lists) for all
// changes made, that allow propagating those changes later to the base
// table when the transaction commits").
type Delta struct {
	Updates []Cell
	Appends []int32
}

// Update records an in-place change.
func (d *Delta) Update(pos, old, new int32) {
	d.Updates = append(d.Updates, Cell{Pos: pos, Old: old, New: new})
}

// Append records a new tuple at the end of the column.
func (d *Delta) Append(v int32) {
	d.Appends = append(d.Appends, v)
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool {
	return len(d.Updates) == 0 && len(d.Appends) == 0
}

// Apply propagates the delta to col and returns the grown column.
func (d *Delta) Apply(col []int32) []int32 {
	for _, c := range d.Updates {
		col[c.Pos] = c.New
	}
	return append(col, d.Appends...)
}

// Revert undoes the delta on col (appends are truncated, updates restored
// in reverse order so overlapping updates unwind correctly).
func (d *Delta) Revert(col []int32) []int32 {
	col = col[:len(col)-len(d.Appends)]
	for i := len(d.Updates) - 1; i >= 0; i-- {
		c := d.Updates[i]
		col[c.Pos] = c.Old
	}
	return col
}

// View resolves the current value of the column at pos as seen through
// the (unapplied) delta, falling back to base.
func (d *Delta) View(base []int32, pos int32) int32 {
	if pos >= int32(len(base)) {
		return d.Appends[pos-int32(len(base))]
	}
	// Later updates win; scan from the back.
	for i := len(d.Updates) - 1; i >= 0; i-- {
		if d.Updates[i].Pos == pos {
			return d.Updates[i].New
		}
	}
	return base[pos]
}

// SortedOffsets builds a CSR-style offset index over a sorted owner
// column: off[k]..off[k+1] are the rows whose owner equals k, for owners
// in [0, n). The attribute table of the read-only schema is indexed this
// way by owner pre.
func SortedOffsets(owners []int32, n int32) []int32 {
	if !sort.SliceIsSorted(owners, func(i, j int) bool { return owners[i] < owners[j] }) {
		panic("bat: SortedOffsets requires a sorted owner column")
	}
	off := make([]int32, n+1)
	row := 0
	for k := int32(0); k <= n; k++ {
		for row < len(owners) && owners[row] < k {
			row++
		}
		off[k] = int32(row)
	}
	off[n] = int32(len(owners))
	return off
}
