package tx

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

// The root-locking ablation: the discipline an absolute-value size
// update would force, where a writer also write-locks the page of every
// ancestor of the node whose size it changes. The delta scheme locks
// none of them (see core.Store.Footprint); these tests take the extra
// locks by hand to show what that saves.

// appendChild appends fr under the node at view rank parent; with
// rootlock it first locks the pages of parent and all its ancestors.
func appendChild(txn *Tx, parent xenc.Pre, fr *shred.Tree, rootlock bool) error {
	if rootlock {
		var pages []int32
		for a := parent; a != xenc.NoPre; a = txn.clone.ParentPre(a) {
			pages = append(pages, txn.clone.PhysPage(a))
		}
		if err := txn.fail(txn.m.lockPages(txn, pages)); err != nil {
			return err
		}
	}
	_, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(parent), Frag: fr})
	return err
}

// TestRootLockingAblation: two writers appending under disjoint shelves
// both commit under the delta scheme, and conflict on the root's page
// once each locks its ancestors — the bottleneck the paper's delta
// increments remove.
func TestRootLockingAblation(t *testing.T) {
	big := `<lib><shelf id="s1">` + strings.Repeat(`<book>A</book>`, 10) +
		`</shelf><shelf id="s2">` + strings.Repeat(`<book>C</book>`, 10) + `</shelf></lib>`
	for _, rootlock := range []bool{false, true} {
		m := NewManager(buildStore(t, big, 16), nil)
		t1, t2 := m.Begin(), m.Begin()
		if err := appendChild(t1, mustSelect(t, t1, `//shelf[@id="s1"]`), frag(t, `<book>X</book>`), rootlock); err != nil {
			t.Fatal(err)
		}
		err := appendChild(t2, mustSelect(t, t2, `//shelf[@id="s2"]`), frag(t, `<book>Y</book>`), rootlock)
		if rootlock {
			if !errors.Is(err, ErrConflict) {
				t.Fatalf("root locking: second writer = %v, want ErrConflict", err)
			}
			t2.Abort()
		} else if err != nil {
			t.Fatalf("delta scheme: disjoint writers conflicted: %v", err)
		} else if err := t2.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := t1.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func deptStore(b *testing.B, depts, docsPerDept int) *core.Store {
	b.Helper()
	bld := shred.NewBuilder().Start("site")
	for d := 0; d < depts; d++ {
		bld.Start("department", shred.Attr{Name: "id", Value: fmt.Sprintf("d%d", d)})
		for i := 0; i < docsPerDept; i++ {
			bld.Elem("doc", "x")
		}
		bld.End()
	}
	s, err := core.Build(bld.End().Tree(), core.Options{PageSize: 128, FillFactor: 0.7})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkCommutativeDeltas contrasts the paper's delta-increment
// commit (writers under a shared root commit concurrently) with the
// root-locking discipline absolute size updates would force (every
// writer contends on the root's page and most attempts abort).
func BenchmarkCommutativeDeltas(b *testing.B) {
	fr, err := shred.ParseFragment(`<k><l/><m/></k>`, shred.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"delta", "rootlock"} {
		b.Run(mode, func(b *testing.B) {
			m := NewManager(deptStore(b, 16, 40), nil)
			// Pin one target department per goroutine.
			var deptIdx int32
			var mu sync.Mutex
			nextDept := func() string {
				mu.Lock()
				defer mu.Unlock()
				deptIdx++
				return fmt.Sprintf("d%d", int(deptIdx)%16)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				sel := xpath.MustParse(fmt.Sprintf(`//department[@id=%q]`, nextDept()))
				for pb.Next() {
					for {
						txn := m.Begin()
						ns, err := sel.Select(txn)
						if err != nil || len(ns) == 0 {
							txn.Abort()
							continue
						}
						if err := appendChild(txn, ns[0].Pre, fr, mode == "rootlock"); err != nil {
							txn.Abort()
							continue
						}
						if err := txn.Commit(); err == nil {
							break
						}
					}
				}
			})
			b.StopTimer()
			st := m.Stats()
			b.ReportMetric(float64(st.Aborts)/float64(st.Commits+1), "aborts/commit")
		})
	}
}
