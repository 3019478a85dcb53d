package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mxq/internal/core"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xupdate"
)

// clonesPerCommit runs commits text commits against a fresh XMark store
// and returns the page and node chunks each installed version holds that
// the one before it did not, summed over the commits. With read set, a
// reader holds every version across the commit that supersedes it.
func clonesPerCommit(t *testing.T, commit func(*testing.T, *tx.Tx, *rand.Rand), commits int, read bool) (pages, nodes int) {
	t.Helper()
	m := tx.NewManager(core.XMarkStore(t, 0.01, core.Options{}), nil)
	rng := rand.New(rand.NewSource(23))
	prev, _ := m.PinCheckpoint()
	for i := 0; i < commits; i++ {
		var rv *tx.ReadView
		if read {
			rv = m.AcquireRead()
		}
		txn := m.Begin()
		commit(t, txn, rng)
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if rv != nil {
			rv.Close()
		}
		next, _ := m.PinCheckpoint()
		oldPages, oldNodes := core.Chunks(prev)
		newPages, newNodes := core.Chunks(next)
		for c := range newPages {
			if !oldPages[c] {
				pages++
			}
		}
		for c := range newNodes {
			if !oldNodes[c] {
				nodes++
			}
		}
		prev = next
	}
	return pages, nodes
}

// setRandomText updates the value of a random text node.
func setRandomText(t *testing.T, txn *tx.Tx, rng *rand.Rand) {
	for {
		p := xenc.Pre(rng.Intn(int(txn.Len())))
		if txn.Level(p) != xenc.LevelUnused && txn.Kind(p) == xenc.KindText {
			if _, err := txn.Apply(wal.Op{Kind: wal.OpSetValue, Target: txn.NodeOf(p), Value: "v"}); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
}

// updatePersonName is the served path's text commit: an xupdate:update
// of a random person's name, which replaces the name's text node.
func updatePersonName(t *testing.T, txn *tx.Tx, rng *rand.Rand) {
	mods, err := xupdate.ParseString(fmt.Sprintf(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">`+
		`<xupdate:update select="/site/people/person[%d]/name">n</xupdate:update></xupdate:modifications>`, 1+rng.Intn(25)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xupdate.Execute(txn, mods); err != nil {
		t.Fatal(err)
	}
}

// TestReaderCostsCommitsNoClones is Section 3.2's snapshot as exact
// counts: a commit copies the chunks it writes into the next version
// whether or not a reader holds the previous one, so a reader leasing
// every version costs the commits no clone. A value update copies its
// one page and no node chunk.
func TestReaderCostsCommitsNoClones(t *testing.T) {
	const commits = 100
	for _, tc := range []struct {
		name   string
		commit func(*testing.T, *tx.Tx, *rand.Rand)
	}{{"set value", setRandomText}, {"xupdate update", updatePersonName}} {
		t.Run(tc.name, func(t *testing.T) {
			wp, wn := clonesPerCommit(t, tc.commit, commits, false)
			rp, rn := clonesPerCommit(t, tc.commit, commits, true)
			t.Logf("per commit: %.2f page and %.2f node-chunk clones write-only, %.2f and %.2f with a reader",
				float64(wp)/commits, float64(wn)/commits, float64(rp)/commits, float64(rn)/commits)
			if rp != wp || rn != wn {
				t.Fatalf("with a reader leasing every version, %d commits cloned %d pages and %d node chunks; write-only %d and %d",
					commits, rp, rn, wp, wn)
			}
			if tc.name == "set value" && (wp != commits || wn != 0) {
				t.Fatalf("%d value updates cloned %d pages and %d node chunks, want %d and 0", commits, wp, wn, commits)
			}
		})
	}
}
