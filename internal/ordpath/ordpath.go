// Package ordpath implements the insert-friendly variable-length node
// labels of O'Neil et al. (SIGMOD 2004) that the paper's related-work
// section contrasts with fixed-size pre numbers: a bit-compressed Dewey
// order where inserts between existing siblings extend labels with even
// "caret" components instead of renumbering.
//
// The package exists to quantify the trade-off the paper claims
// (Section 4.2): variable-length keys avoid renumbering entirely, but
// comparisons cost more than single integer comparisons, positional
// skipping is impossible, and label length degenerates under repeated
// inserts into the same gap. The Ordpath benchmarks measure exactly
// those three effects.
//
// It is one of the paper's comparison baselines (Section 4.2): imported
// only by the benchmarks in bench_test.go, and deliberately not served.
package ordpath

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Label is a node label: a sequence of ordinals. Odd ordinals open tree
// levels; even ordinals are carets gluing inserts into an existing level.
// A well-formed label ends with an odd ordinal.
type Label []int64

// Root returns the label of the document root.
func Root() Label { return Label{1} }

// Clone returns an independent copy.
func (l Label) Clone() Label { return append(Label(nil), l...) }

// Depth returns the tree depth: the number of odd components.
func (l Label) Depth() int {
	d := 0
	for _, c := range l {
		if c%2 != 0 {
			d++
		}
	}
	return d
}

// String renders the dotted form.
func (l Label) String() string {
	var b bytes.Buffer
	for i, c := range l {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// FirstChild returns the label of a first child.
func (l Label) FirstChild() Label {
	return append(l.Clone(), 1)
}

// NextSibling returns a label directly after l among its siblings (used
// when appending at the end of a child list).
func (l Label) NextSibling() Label {
	n := l.Clone()
	n[len(n)-1] += 2
	return n
}

// PrevSibling returns a label directly before l (inserting at the front).
func (l Label) PrevSibling() Label {
	n := l.Clone()
	n[len(n)-1] -= 2
	return n
}

// Compare orders labels in document order (componentwise; a proper
// prefix — an ancestor — sorts first).
func Compare(a, b Label) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// IsAncestor reports whether a is a proper ancestor of b: a is a strict
// prefix of b (carets considered).
func IsAncestor(a, b Label) bool {
	if len(a) >= len(b) {
		return false
	}
	for i, c := range a {
		if b[i] != c {
			return false
		}
	}
	return true
}

// Between returns a fresh label strictly between two sibling labels
// (Compare(l, new) < 0 < Compare(new, r)) at the same depth — the
// "careting in" insert of the ORDPATH paper. It panics if l >= r or the
// labels are not siblings of a common parent.
func Between(l, r Label) Label {
	if Compare(l, r) >= 0 {
		panic(fmt.Sprintf("ordpath: Between(%s, %s): not ordered", l, r))
	}
	i := 0
	for i < len(l) && i < len(r) && l[i] == r[i] {
		i++
	}
	if i == len(l) || i == len(r) {
		panic(fmt.Sprintf("ordpath: Between(%s, %s): prefix labels are ancestor/descendant, not siblings", l, r))
	}
	lo, hi := l[i], r[i]
	// An odd ordinal strictly between fits directly.
	if hi-lo >= 2 {
		m := lo + (hi-lo)/2
		if m%2 == 0 {
			m++
		}
		if m > lo && m < hi {
			return append(l[:i:i].Clone(), m)
		}
		// Only the even lo+1 lies between: caret into it.
		return append(l[:i:i].Clone(), lo+1, 1)
	}
	// Adjacent ordinals (hi == lo+1): descend into the side that has a
	// continuation after the even component.
	if hi%2 == 0 {
		// r continues after its caret; produce something smaller there.
		rest := r[i+1]
		o := rest - 1
		if o%2 == 0 {
			o--
		}
		return append(r[:i+1:i+1].Clone(), o)
	}
	// lo is even, so l continues; produce something larger there.
	rest := l[i+1]
	o := rest + 1
	if o%2 == 0 {
		o++
	}
	return append(l[:i+1:i+1].Clone(), o)
}

// Encode produces the order-preserving bit-compressed byte form: for each
// ordinal, one header byte (0x40 ± byte-length, negatives complemented)
// followed by the big-endian magnitude. bytes.Compare on encodings equals
// Compare on labels, which is what an RDBMS index needs.
func (l Label) Encode() []byte {
	out := make([]byte, 0, len(l)*3)
	var scratch [8]byte
	for _, c := range l {
		neg := c < 0
		mag := uint64(c)
		if neg {
			mag = uint64(-c)
		}
		binary.BigEndian.PutUint64(scratch[:], mag)
		n := 8
		for n > 1 && scratch[8-n] == 0 {
			n--
		}
		if neg {
			// Negative ordinals: header below 0x40, magnitude bytes
			// complemented so bigger magnitudes sort earlier.
			out = append(out, byte(0x40-n))
			for _, b := range scratch[8-n:] {
				out = append(out, ^b)
			}
		} else {
			out = append(out, byte(0x40+n))
			out = append(out, scratch[8-n:]...)
		}
	}
	return out
}

// Decode parses an encoded label.
func Decode(enc []byte) (Label, error) {
	var l Label
	for i := 0; i < len(enc); {
		h := enc[i]
		i++
		var n int
		neg := false
		switch {
		case h > 0x40 && h <= 0x48:
			n = int(h - 0x40)
		case h >= 0x38 && h < 0x40:
			n = int(0x40 - h)
			neg = true
		default:
			return nil, fmt.Errorf("ordpath: bad header byte %#x at %d", h, i-1)
		}
		if i+n > len(enc) {
			return nil, fmt.Errorf("ordpath: truncated ordinal at %d", i)
		}
		var mag uint64
		for _, b := range enc[i : i+n] {
			if neg {
				b = ^b
			}
			mag = mag<<8 | uint64(b)
		}
		i += n
		if neg {
			l = append(l, -int64(mag))
		} else {
			l = append(l, int64(mag))
		}
	}
	return l, nil
}
