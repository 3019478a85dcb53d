// Package difftest cross-checks the paged updatable store against the
// naive O(N) reference store (internal/naive) on randomized update
// workloads. The two implementations share nothing but the DocView
// interface, so any divergence in serialized output or any broken
// invariant points at a real defect in one of them — the style of net
// FLUX-like update-language work recommends for XML stores, where update
// correctness is notoriously easy to rot silently.
//
// Workloads are seeded and fully deterministic: a failure report's seed
// reproduces the exact op sequence. Operations target nodes by *live
// document-order index*, which both stores can resolve regardless of how
// their physical layouts diverge (the paged store interleaves free
// tuples; the naive store is dense).
//
// The harness runs in two modes: direct (every op mutates the paged
// store in place) and transactional (ops run against a page-granular
// copy-on-write transaction image in batches that alternately commit and
// abort, exercising the snapshot/commit/abort paths of Section 3.2 — the
// oracle is advanced only on commit).
package difftest

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
	"mxq/internal/xupdate"
)

// diffQueries cross-check the query engine over both stores at every
// agreement point, on top of the serialized-document comparison. The
// shapes target the sequence-at-a-time pipeline: multi-step descendant
// paths whose context sets overlap (pruned staircase scans), positional
// predicates (fused early-exit counters), boolean predicates over merged
// sequences, and reverse-axis positions (the numbering operator). Element
// and attribute names follow what randomDoc/randFrag generate.
var diffQueries = []*xpath.Expr{
	xpath.MustParse(`count(//node())`),
	xpath.MustParse(`//e0//leaf/text()`),
	xpath.MustParse(`//e1//g1/text()`),
	xpath.MustParse(`//f0//text()`),
	xpath.MustParse(`/root//leaf[1]/text()`),
	xpath.MustParse(`//leaf[2]`),
	xpath.MustParse(`//*[@i]//leaf`),
	xpath.MustParse(`//e0[.//leaf]/..`),
	xpath.MustParse(`//e1/ancestor::*[last()]`),
	xpath.MustParse(`//f1/preceding-sibling::node()[1]`),
	xpath.MustParse(`count(//*[@a0] | //*[@a1])`),
	xpath.MustParse(`//e2[leaf]/leaf[last()]/text()`),
	// Filter expressions: predicates numbered against the base sequence,
	// filtered in place over both stores' physically different layouts.
	xpath.MustParse(`(//leaf)[2]/text()`),
	xpath.MustParse(`(//e0 | //e1)[leaf]`),
	xpath.MustParse(`(//e0//leaf)[.//text()][1]`),
	xpath.MustParse(`count((//*[@i])[g1])`),
	xpath.MustParse(`//e0[leaf][.//g1]`),
}

// Config describes one differential workload.
type Config struct {
	Seed     int64
	Steps    int     // number of update operations
	DocSize  int     // node count of the initial random document
	PageSize int     // paged-store logical page size
	Fill     float64 // paged-store fill factor
	// TxBatch, when > 0, routes the paged-store operations through a
	// tx.Manager in batches of TxBatch ops; odd batches commit, even
	// batches abort (the oracle only advances on commit).
	TxBatch int
}

var opNames = [...]string{
	wal.OpInsertBefore: "InsertBefore", wal.OpInsertAfter: "InsertAfter",
	wal.OpAppendChild: "AppendChild", wal.OpDelete: "Delete",
	wal.OpSetValue: "SetValue", wal.OpRename: "Rename",
	wal.OpSetAttr: "SetAttr", wal.OpRemoveAttr: "RemoveAttr",
}

// op is one operation: a wal.Op whose target is a live document-order
// index, which each store translates to its own node at apply time.
type op struct {
	wal.Op
	index int
}

func (o op) String() string {
	return fmt.Sprintf("%s@%d(name=%q value=%q)", opNames[o.Kind], o.index, o.Name, o.Value)
}

// applyPaged runs the op on the paged store (or a transaction image).
func (o op) applyPaged(v xupdate.Target) error {
	w := o.Op
	w.Target = v.NodeOf(liveIndexPre(v, o.index))
	_, err := v.Apply(w)
	return err
}

// applyNaive runs the op on the oracle.
func (o op) applyNaive(s *naive.Store) error {
	p := liveIndexPre(s, o.index)
	switch o.Kind {
	case wal.OpInsertBefore:
		return s.InsertBefore(p, o.Frag)
	case wal.OpInsertAfter:
		return s.InsertAfter(p, o.Frag)
	case wal.OpAppendChild:
		return s.AppendChild(p, o.Frag)
	case wal.OpDelete:
		return s.Delete(p)
	case wal.OpSetValue:
		return s.SetValue(p, o.Value)
	case wal.OpRename:
		return s.Rename(p, o.Name)
	case wal.OpSetAttr:
		return s.SetAttr(p, o.Name, o.Value)
	case wal.OpRemoveAttr:
		return s.RemoveAttr(p, o.Name)
	}
	return fmt.Errorf("unknown op kind %d", o.Kind)
}

// liveIndexPre returns the pre rank of the idx-th live node in document
// order (idx 0 is the root).
func liveIndexPre(v xenc.DocView, idx int) xenc.Pre {
	p := xenc.SkipFree(v, 0)
	for ; idx > 0; idx-- {
		p = xenc.SkipFree(v, p+1)
	}
	return p
}

// genOp picks a random operation that is valid against the current state
// of view v. It returns ok=false only if the document somehow has no
// live nodes (which would itself be a bug the caller reports).
func genOp(rng *rand.Rand, v xenc.DocView, stamp int) (op, bool) {
	n := v.LiveNodes()
	if n == 0 {
		return op{}, false
	}
	idx := rng.Intn(n)
	p := liveIndexPre(v, idx)
	kind := v.Kind(p)

	var candidates []wal.OpKind
	if idx != 0 {
		candidates = append(candidates, wal.OpInsertBefore, wal.OpInsertAfter, wal.OpDelete)
	}
	switch kind {
	case xenc.KindElem:
		candidates = append(candidates, wal.OpAppendChild, wal.OpRename, wal.OpSetAttr, wal.OpRemoveAttr)
	case xenc.KindText, xenc.KindComment:
		candidates = append(candidates, wal.OpSetValue)
	case xenc.KindPI:
		candidates = append(candidates, wal.OpSetValue, wal.OpRename)
	}
	o := op{Op: wal.Op{Kind: candidates[rng.Intn(len(candidates))]}, index: idx}
	switch o.Kind {
	case wal.OpInsertBefore, wal.OpInsertAfter, wal.OpAppendChild:
		o.Frag = randFrag(rng, stamp)
	case wal.OpSetValue:
		o.Value = fmt.Sprintf("v%d", stamp)
	case wal.OpRename:
		o.Name = fmt.Sprintf("r%d", rng.Intn(6))
	case wal.OpSetAttr:
		o.Name = fmt.Sprintf("a%d", rng.Intn(4))
		o.Value = fmt.Sprintf("w%d", stamp)
	case wal.OpRemoveAttr:
		o.Name = fmt.Sprintf("a%d", rng.Intn(4))
	}
	return o, true
}

// genBatch generates n random ops against a transaction image and
// applies each to it as it goes; op i is stamped key+i. It returns the
// ops, which the oracle replays if the transaction commits.
func genBatch(t *testing.T, seed int64, rng *rand.Rand, txn *tx.Tx, batch, key, n int) []op {
	t.Helper()
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o, ok := genOp(rng, txn, key+i)
		if !ok {
			t.Fatalf("seed %d batch %d: tx image has no live nodes", seed, batch)
		}
		ops = append(ops, o)
		if err := o.applyPaged(txn); err != nil {
			t.Fatalf("seed %d batch %d: tx %v: %v", seed, batch, o, err)
		}
	}
	return ops
}

// oracleAt builds a fresh oracle over tree, replays the batches committed
// at LSNs 1..lsn onto it and returns its serialization.
func oracleAt(t *testing.T, seed int64, tree *shred.Tree, batches map[uint64][]op, lsn uint64) string {
	t.Helper()
	oracle, err := naive.Build(tree)
	if err != nil {
		t.Fatalf("seed %d: building oracle: %v", seed, err)
	}
	for l := uint64(1); l <= lsn; l++ {
		for _, o := range batches[l] {
			if err := o.applyNaive(oracle); err != nil {
				t.Fatalf("seed %d: oracle replay of LSN %d op %v: %v", seed, l, o, err)
			}
		}
	}
	return serializeView(t, oracle)
}

// randFrag builds a small random single-rooted fragment: an element with
// up to three child nodes (elements, text, comments), possibly carrying
// an attribute.
func randFrag(rng *rand.Rand, stamp int) *shred.Tree {
	b := shred.NewBuilder()
	if rng.Intn(2) == 0 {
		b.Start(fmt.Sprintf("f%d", rng.Intn(5)), shred.Attr{Name: "s", Value: fmt.Sprint(stamp)})
	} else {
		b.Start(fmt.Sprintf("f%d", rng.Intn(5)))
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			b.Elem(fmt.Sprintf("g%d", rng.Intn(3)), fmt.Sprintf("t%d", stamp))
		case 1:
			b.Text(fmt.Sprintf("x%d", stamp))
		default:
			b.Comment(fmt.Sprintf("c%d", stamp))
		}
	}
	return b.End().Tree()
}

// randomDoc builds the seeded initial document.
func randomDoc(rng *rand.Rand, n int) *shred.Tree {
	b := shred.NewBuilder().Start("root")
	depth := 1
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			if rng.Intn(2) == 0 {
				b.Start(fmt.Sprintf("e%d", rng.Intn(4)), shred.Attr{Name: "i", Value: fmt.Sprint(i)})
			} else {
				b.Start(fmt.Sprintf("e%d", rng.Intn(4)))
			}
			depth++
		case 1:
			b.Text(fmt.Sprintf("t%d", i))
		case 2:
			b.Elem("leaf", fmt.Sprintf("l%d", i))
		default:
			if depth > 1 {
				b.End()
				depth--
			} else {
				b.Comment(fmt.Sprintf("c%d", i))
			}
		}
	}
	for depth > 0 {
		b.End()
		depth--
	}
	return b.Tree()
}

// serializeView renders a view to XML.
func serializeView(tb testing.TB, v xenc.DocView) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := serialize.Document(&buf, v, serialize.Options{}); err != nil {
		tb.Fatalf("serialize: %v", err)
	}
	return buf.String()
}

// checkAgree compares the paged store against the oracle and verifies
// the paged store's structural invariants.
func checkAgree(t *testing.T, cfg Config, step int, paged *core.Store, oracle *naive.Store, history []op) {
	t.Helper()
	if err := paged.CheckInvariants(); err != nil {
		t.Fatalf("seed %d step %d: paged-store invariants broken after %v: %v",
			cfg.Seed, step, tail(history), err)
	}
	got, want := serializeView(t, paged), serializeView(t, oracle)
	if got != want {
		t.Fatalf("seed %d step %d: stores diverged after %v\npaged:  %s\noracle: %s",
			cfg.Seed, step, tail(history), got, want)
	}
	if paged.LiveNodes() != oracle.LiveNodes() {
		t.Fatalf("seed %d step %d: live-node counts diverged: paged %d, oracle %d",
			cfg.Seed, step, paged.LiveNodes(), oracle.LiveNodes())
	}
	if err := sameNames(paged, oracle); err != nil {
		t.Fatalf("seed %d step %d: %v after %v", cfg.Seed, step, err, tail(history))
	}
	for _, e := range diffQueries {
		got, err1 := queryFingerprint(paged, e)
		want, err2 := queryFingerprint(oracle, e)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d step %d: query %q: paged err %v, oracle err %v",
				cfg.Seed, step, e.Source(), err1, err2)
		}
		if got != want {
			t.Fatalf("seed %d step %d: query %q diverged after %v\npaged:  %.300s\noracle: %.300s",
				cfg.Seed, step, e.Source(), tail(history), got, want)
		}
	}
}

// sameNames reports whether two views' name pools hold the same set of
// names. The oracle only ever sees committed operations, so a name an
// aborted transaction interned into the paged store's pool shows here.
func sameNames(paged, oracle xenc.DocView) error {
	got := slices.Sorted(slices.Values(paged.Names().Table()))
	want := slices.Sorted(slices.Values(oracle.Names().Table()))
	if !slices.Equal(got, want) {
		return fmt.Errorf("name pools diverged: paged holds %q, oracle %q", got, want)
	}
	return nil
}

func tail(history []op) []op {
	if len(history) > 5 {
		return history[len(history)-5:]
	}
	return history
}

// Run executes one differential workload described by cfg.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tree := randomDoc(rng, cfg.DocSize)

	oracle, err := naive.Build(tree)
	if err != nil {
		t.Fatalf("seed %d: building oracle: %v", cfg.Seed, err)
	}
	paged, err := core.Build(tree, core.Options{PageSize: cfg.PageSize, FillFactor: cfg.Fill})
	if err != nil {
		t.Fatalf("seed %d: building paged store: %v", cfg.Seed, err)
	}
	checkAgree(t, cfg, -1, paged, oracle, nil)

	if cfg.TxBatch > 0 {
		runTx(t, cfg, rng, paged, oracle)
		return
	}

	var history []op
	for step := 0; step < cfg.Steps; step++ {
		o, ok := genOp(rng, paged, step)
		if !ok {
			t.Fatalf("seed %d step %d: paged store has no live nodes", cfg.Seed, step)
		}
		history = append(history, o)
		if err := o.applyPaged(paged); err != nil {
			t.Fatalf("seed %d step %d: paged %v: %v", cfg.Seed, step, o, err)
		}
		if err := o.applyNaive(oracle); err != nil {
			t.Fatalf("seed %d step %d: oracle %v: %v", cfg.Seed, step, o, err)
		}
		checkAgree(t, cfg, step, paged, oracle, history)
	}
}

// runTx drives the same differential comparison through the transaction
// layer: ops are generated against (and applied to) a copy-on-write
// transaction image; odd batches commit — installing the image as the
// next version and advancing the oracle — while even batches abort,
// after which the current version must still match the oracle exactly
// (the dropped private pages must not have leaked into shared state).
// The built store is version 0 and must still read as built at the end:
// no commit writes a published version.
func runTx(t *testing.T, cfg Config, rng *rand.Rand, paged *core.Store, oracle *naive.Store) {
	t.Helper()
	built := serializeView(t, paged)
	m := tx.NewManager(paged, nil)
	step := 0
	batch := 0
	var history []op
	for step < cfg.Steps {
		batch++
		txn := m.Begin()
		pending := genBatch(t, cfg.Seed, rng, txn, batch, step, min(cfg.TxBatch, cfg.Steps-step))
		step += len(pending)
		commit := batch%2 == 1
		if commit {
			if err := txn.Commit(); err != nil {
				t.Fatalf("seed %d batch %d: commit: %v", cfg.Seed, batch, err)
			}
			for _, o := range pending {
				if err := o.applyNaive(oracle); err != nil {
					t.Fatalf("seed %d batch %d: oracle %v: %v", cfg.Seed, batch, o, err)
				}
			}
			history = append(history, pending...)
		} else {
			txn.Abort()
		}
		cur, _ := m.PinCheckpoint()
		checkAgree(t, cfg, step, cur, oracle, history)
	}
	if got := serializeView(t, paged); got != built {
		t.Fatalf("seed %d: version 0 was written\nbuilt: %.400s\nnow:   %.400s", cfg.Seed, built, got)
	}
}
