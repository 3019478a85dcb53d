package tx

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// TestLockCover holds a transaction's page locks to what its ops write.
func TestLockCover(t *testing.T) {
	// In seeded random transactions of inserts of all four kinds (with
	// fragments of up to three pages), deletes and value updates, every
	// physical page that existed before an op and whose level, kind,
	// name, text or node column the op rewrote is among the pages the
	// transaction locked for that op. The size column is left out: an
	// ancestor's size moves by a commutative delta, under no lock.
	t.Run("writes", func(t *testing.T) {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ps := []int{8, 16}[seed%2]
			s, err := core.Build(randomTree(rng, 8*ps), core.Options{PageSize: ps, FillFactor: 0.5 + 0.1*float64(seed%6)})
			if err != nil {
				t.Fatal(err)
			}
			txn := NewManager(s, nil).Begin()
			for step := 0; step < 20; step++ {
				op := randomOp(rng, txn, ps)
				before := pageColumns(txn.clone)
				locked, err := lockedBy(txn, op)
				if err != nil {
					continue
				}
				for ph, cols := range pageColumns(txn.clone) {
					if b, ok := before[ph]; ok && b != cols && !locked[ph] {
						t.Fatalf("seed %d, op %d (kind %d): physical page %d rewritten, locked %v", seed, step, op.Kind, ph, slices.Sorted(maps.Keys(locked)))
					}
				}
			}
			txn.Abort()
		}
	})
	// An insert the image refuses, beside the root or under a text node,
	// takes no lock: nothing else may be kept from the pages around
	// where it would have landed.
	t.Run("refused insert", func(t *testing.T) {
		txn := NewManager(buildStore(t, doc, 8), nil).Begin()
		root := txn.NodeOf(txn.clone.Root())
		text := txn.NodeOf(mustSelect(t, txn, `//book/text()`))
		for _, op := range []wal.Op{
			{Kind: wal.OpInsertBefore, Target: root},
			{Kind: wal.OpInsertAfter, Target: root},
			{Kind: wal.OpAppendChild, Target: text},
			{Kind: wal.OpInsertChildAt, Target: text},
		} {
			op.Frag = frag(t, `<x/>`)
			if locked, err := lockedBy(txn, op); err == nil || len(locked) > 0 {
				t.Fatalf("refused insert (kind %d): error %v, locked pages %v", op.Kind, err, slices.Sorted(maps.Keys(locked)))
			}
		}
	})
}

// lockedBy applies op in txn and returns the pages it locked for op,
// whether or not it also held them before.
func lockedBy(txn *Tx, op wal.Op) (map[int32]bool, error) {
	held := txn.pages
	txn.pages = map[int32]bool{}
	_, err := txn.Apply(op)
	locked := txn.pages
	txn.pages = maps.Clone(held)
	maps.Copy(txn.pages, locked)
	return locked, err
}

// pageColumns maps each physical page of s to its level, kind, name,
// text and node columns.
func pageColumns(s *core.Store) map[int32]string {
	out := map[int32]string{}
	for p := xenc.Pre(0); p < s.Len(); p += xenc.Pre(s.PageSize()) {
		c, _ := s.Cols(p)
		nodes := make([]xenc.NodeID, s.PageSize())
		for i := range nodes {
			nodes[i] = s.NodeOf(p + xenc.Pre(i))
		}
		out[s.PhysPage(p)] = fmt.Sprint(c.Level, c.Kind, c.Name, c.Text, nodes)
	}
	return out
}

// randomOp draws an op of any kind at a random live node of txn's image.
// Some are refused, which the callers skip.
func randomOp(rng *rand.Rand, txn *Tx, pageSize int) wal.Op {
	var live []xenc.Pre
	for p := xenc.SkipFree(txn, 0); p < txn.Len(); p = xenc.SkipFree(txn, p+1) {
		live = append(live, p)
	}
	op := wal.Op{
		Kind:   wal.OpKind(rng.Intn(int(wal.OpRemoveAttr) + 1)),
		Target: txn.NodeOf(live[rng.Intn(len(live))]),
		Child:  []int32{-1, 0, 1, 3, 99}[rng.Intn(5)],
		Name:   []string{"i", "r"}[rng.Intn(2)],
		Value:  "v",
	}
	n := 1 + rng.Intn(4)
	if rng.Intn(3) == 0 {
		n = 1 + rng.Intn(3*pageSize)
	}
	op.Frag = &shred.Tree{Nodes: randomTree(rng, n).Nodes[1:]}
	for i := range op.Frag.Nodes {
		op.Frag.Nodes[i].Level--
	}
	return op
}

// randomTree builds a document of about n nodes: a root over elements,
// some with an attribute, and texts.
func randomTree(rng *rand.Rand, n int) *shred.Tree {
	b := shred.NewBuilder().Start("root")
	depth := 1
	for i := 0; i < n; i++ {
		switch r := rng.Intn(4); {
		case r == 0 && depth > 1:
			b.End()
			depth--
		case r == 1:
			b.Text(fmt.Sprintf("t%d", i))
		default:
			b.Start(fmt.Sprintf("e%d", rng.Intn(4)), shred.Attr{Name: "i", Value: fmt.Sprint(i)})
			depth++
		}
	}
	for ; depth > 0; depth-- {
		b.End()
	}
	return b.Tree()
}
