package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// layoutGolden is the digest TestInsertLayoutGolden computes. It changes
// only with the physical layout an insert or a delete produces, which no
// refactoring of the update path may move: the chunks a checkpoint
// writes, the WAL a follower replays and the page locks a transaction
// takes all follow from it.
const layoutGolden = "d1bd6e71dc8e9b651a55782cd60569aeb9e541b352931927a8fcb58015da6c99"

// TestInsertLayoutGolden runs seeded random inserts of all four kinds,
// with fragments of up to three pages, and deletes, at page sizes 8, 16
// and 64 and fill factors from 0.5 to 1.0, and hashes after every op
// the op's outcome and the ids it handed out, the store's manifest (the
// page tables and the content names of every chunk) and its derived
// columns (size, node/pos and parent). A change to where a tuple lands,
// which page is spliced where, which id is taken or what a free tuple
// holds changes the digest.
func TestInsertLayoutGolden(t *testing.T) {
	h := sha256.New()
	ops := 0
	for _, ps := range []int{8, 16, 64} {
		for _, fill := range []float64{0.5, 0.7, 0.85, 1.0} {
			rng := rand.New(rand.NewSource(int64(ps*1000) + int64(fill*100)))
			// Pad the document to whole pages, so that at fill 1.0 an
			// append at its end lands past the last page.
			doc := randomDoc(rng, 6*ps)
			for len(doc.Nodes)%ps != 0 {
				doc.Nodes = append(doc.Nodes, shred.Node{Kind: xenc.KindElem, Name: "pad", Level: 1})
				doc.Nodes[0].Size++
			}
			s, err := Build(doc, Options{PageSize: ps, FillFactor: fill})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 200; step++ {
				op := randomLayoutOp(rng, s, ps)
				ids, err := s.Apply(op)
				fmt.Fprintf(h, "%d %d %d %v %v\n", op.Kind, op.Target, op.Child, err == nil, ids)
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("page size %d, fill %g, op %d (kind %d): %v", ps, fill, step, op.Kind, err)
				}
				hashLayout(h, s)
				ops++
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != layoutGolden {
		t.Fatalf("layout digest over %d ops = %s, want %s", ops, got, layoutGolden)
	}
}

// randomLayoutOp draws a delete or an insert of any kind at a live node:
// a random one, the first of a page (an insert before it may land in
// the previous page's free tail) or one of the last three (an insert
// after it may land past the last page). A third of the inserts carry a
// fragment of up to three pages. Some ops are refused (a sibling of the
// root, a child of a text node, a delete of the root), which the digest
// records too.
func randomLayoutOp(rng *rand.Rand, s *Store, pageSize int) wal.Op {
	var live, heads []xenc.Pre
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		live = append(live, p)
		if p%xenc.Pre(pageSize) == 0 {
			heads = append(heads, p)
		}
	}
	target := live[rng.Intn(len(live))]
	switch rng.Intn(4) {
	case 0:
		if len(heads) > 0 {
			target = heads[rng.Intn(len(heads))]
		}
	case 1:
		target = live[max(0, len(live)-1-rng.Intn(3))]
	}
	op := wal.Op{Target: s.NodeOf(target)}
	switch r := rng.Intn(10); {
	case r < 3 && len(live) > 2*pageSize || len(live) > 30*pageSize:
		op.Kind = wal.OpDelete
		return op
	case r < 5:
		op.Kind = wal.OpInsertBefore + wal.OpKind(r%2) // before or after
	case r < 7:
		op.Kind = wal.OpAppendChild
	default:
		op.Kind = wal.OpInsertChildAt
		op.Child = []int32{-1, 0, 1, 2, 5, 99}[rng.Intn(6)]
	}
	op.Frag = randomFragment(rng)
	if rng.Intn(3) == 0 {
		op.Frag = largeFragment(rng, 1+rng.Intn(3*pageSize))
	}
	return op
}

// largeFragment builds a forest of at most n nodes: elements, some with
// an attribute, and texts.
func largeFragment(rng *rand.Rand, n int) *shred.Tree {
	b := shred.NewBuilder()
	for i := 0; i < n; i++ {
		switch r := rng.Intn(5); {
		case r == 0 && b.Open():
			b.End()
		case r == 1:
			b.Text(fmt.Sprintf("f%d", i))
		case r == 2:
			b.Start(fmt.Sprintf("x%d", rng.Intn(40)), shred.Attr{Name: "i", Value: fmt.Sprint(i)})
		default:
			b.Start(fmt.Sprintf("e%d", rng.Intn(4)))
		}
	}
	for b.Open() {
		b.End()
	}
	return b.Tree()
}

// hashLayout writes the store's manifest and derived columns into h.
func hashLayout(h io.Writer, s *Store) {
	m, _ := s.collectChunks()
	fmt.Fprintln(h, m.LogToPhys, m.PhysToLog, m.NodeLen, m.LiveNodes, m.Pages, m.Nodes, m.Names)
	for _, p := range s.pages {
		binary.Write(h, binary.LittleEndian, p.size)
	}
	for _, c := range s.nodes {
		binary.Write(h, binary.LittleEndian, c.pos)
		binary.Write(h, binary.LittleEndian, c.parent)
	}
}
