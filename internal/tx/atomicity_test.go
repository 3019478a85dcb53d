package tx

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

// TestReadersNeverSeePartialCommits is the atomicity litmus test: every
// write transaction inserts a *pair* of elements in one commit, and
// concurrent readers (of one committed version each, like the paper's
// read-only queries) must always observe an even number — a torn commit
// would show up as an odd count.
func TestReadersNeverSeePartialCommits(t *testing.T) {
	s := buildStore(t, `<log><entries>`+strings.Repeat(`<pad/>`, 20)+`</entries></log>`, 64)
	m := NewManager(s, nil)

	const writers = 4
	const commitsPerWriter = 30
	var torn atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers.
	countPairs := xpath.MustParse(`count(//pair)`)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				readCurrent(m, func(v xenc.DocView) error {
					val, err := countPairs.Eval(v)
					if err != nil {
						t.Error(err)
						return nil
					}
					n := int(val.(xpath.Number))
					if n%2 != 0 {
						torn.Add(1)
					}
					return nil
				})
			}
		}()
	}

	// Writers: each commit inserts two <pair/> elements atomically.
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			sel := xpath.MustParse(`/log/entries`)
			for i := 0; i < commitsPerWriter; i++ {
				for {
					txn := m.Begin()
					ns, err := sel.Select(txn)
					if err != nil || len(ns) != 1 {
						txn.Abort()
						continue
					}
					if _, err := txn.Apply(wal.Op{Kind: wal.OpAppendChild, Target: txn.NodeOf(ns[0].Pre), Frag: frag(t, fmt.Sprintf(`<pair w="%d"/><pair w="%d"/>`, w, w))}); err != nil {
						txn.Abort()
						continue
					}
					if err := txn.Commit(); err == nil {
						break
					}
				}
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Fatalf("readers observed %d torn states", n)
	}
	readCurrent(m, func(v xenc.DocView) error {
		ns, _ := xpath.MustParse(`//pair`).Select(v)
		if len(ns) != writers*commitsPerWriter*2 {
			t.Fatalf("pairs = %d, want %d", len(ns), writers*commitsPerWriter*2)
		}
		return nil
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
