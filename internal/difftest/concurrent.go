package difftest

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// ConcurrentConfig describes one concurrent snapshot workload: reader
// goroutines run XMark-style queries against per-version snapshots
// while the driver applies randomized committed and aborted update
// batches through the transaction layer. Every query result must match
// the naive oracle frozen at that snapshot's version — the harness's
// strongest guarantee, because it catches torn reads, stale caches and
// cross-version bleed that single-threaded difftests cannot. Run it
// under -race.
type ConcurrentConfig struct {
	Seed     int64
	SF       float64 // XMark scale factor of the base document
	Readers  int     // concurrent query goroutines
	Batches  int     // update batches the driver applies
	BatchOps int     // ops per batch
	PageSize int
	Fill     float64
}

// concurrentQueries are the XMark-style read workloads; all are inside
// the supported XPath subset and meaningful on a generated XMark
// document whatever updates later land on it.
var concurrentQueries = []string{
	`count(/site/regions//item)`,
	`/site/regions//item/name/text()`,
	`/site/people/person/name/text()`,
	`count(/site/people/person[@id])`,
	`count(//keyword)`,
	`/site/open_auctions/open_auction/initial/text()`,
	`count(/site//text())`,
	`string(/site/catgraph)`,
	// Multi-step descendant paths over large overlapping context sets
	// (the sequence-at-a-time pipeline's pruned staircase scans) and
	// positional predicates (fused early-exit counters and last() under
	// the numbering operator), exercised while commits land concurrently.
	`/site//open_auction//increase/text()`,
	`//description//keyword/text()`,
	`//listitem//text()`,
	`/site/regions//item[1]/name/text()`,
	`//person[2]/name/text()`,
	`//open_auction/bidder[last()]/increase/text()`,
	`count(//parlist//listitem)`,
	`//item[description//keyword]/name/text()`,
}

// queryFingerprint renders a query result into a comparable form that
// does not depend on physical pre ranks (the paged store interleaves
// free tuples; the oracle is dense).
func queryFingerprint(v xenc.DocView, e *xpath.Expr) (string, error) {
	val, err := e.Eval(v)
	if err != nil {
		return "", err
	}
	switch x := val.(type) {
	case xpath.NodeSet:
		var b strings.Builder
		fmt.Fprintf(&b, "nodes:%d\n", len(x))
		for _, n := range x {
			b.WriteString(xpath.StringValue(v, n))
			b.WriteByte('\n')
		}
		return b.String(), nil
	case xpath.Number:
		return "num:" + xpath.FormatNumber(float64(x)), nil
	case xpath.String:
		return "str:" + string(x), nil
	case xpath.Boolean:
		return fmt.Sprintf("bool:%v", bool(x)), nil
	}
	return "", fmt.Errorf("unexpected result type %T", val)
}

func serializeErr(v xenc.DocView) (string, error) {
	var buf bytes.Buffer
	if err := serialize.Document(&buf, v, serialize.Options{}); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// RunConcurrent executes one concurrent snapshot workload.
func RunConcurrent(t *testing.T, cfg ConcurrentConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(cfg.SF, uint64(cfg.Seed)+1).WriteTo(&buf); err != nil {
		t.Fatalf("seed %d: generating XMark: %v", cfg.Seed, err)
	}
	tree, err := shred.ParseString(buf.String(), shred.Options{})
	if err != nil {
		t.Fatalf("seed %d: shredding XMark: %v", cfg.Seed, err)
	}
	oracle, err := naive.Build(tree)
	if err != nil {
		t.Fatalf("seed %d: building oracle: %v", cfg.Seed, err)
	}
	paged, err := core.Build(tree, core.Options{PageSize: cfg.PageSize, FillFactor: cfg.Fill})
	if err != nil {
		t.Fatalf("seed %d: building paged store: %v", cfg.Seed, err)
	}
	built, err := serializeErr(paged)
	if err != nil {
		t.Fatalf("seed %d: serializing the built store: %v", cfg.Seed, err)
	}
	m := tx.NewManager(paged, nil)

	exprs := make([]*xpath.Expr, len(concurrentQueries))
	for i, q := range concurrentQueries {
		e, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		exprs[i] = e
	}

	// versions[v] is the oracle frozen at committed version v. The
	// driver publishes versions[v+1] *before* making version v+1 visible
	// (commit installs it), so any reader that observes a version finds
	// its oracle.
	var verMu sync.RWMutex
	versions := map[uint64]*naive.Store{0: oracle.Clone()}
	frozenAt := func(v uint64) *naive.Store {
		verMu.RLock()
		defer verMu.RUnlock()
		return versions[v]
	}

	stop := make(chan struct{})
	// halt stops the readers; a Fatalf in the driver below runs it too.
	halt := sync.OnceFunc(func() { close(stop) })
	defer halt()
	errs := make(chan error, cfg.Readers)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(cfg.Seed ^ (int64(r)+1)*7919))
			fail := func(err error) {
				select {
				case errs <- err:
				default:
				}
			}
			// Readers alternate short views (one check, closed at once)
			// with commit-spanning ones (a view opened on every fourth
			// iteration is kept for three checks, so commits and
			// compactions land while it is open and it is re-read after
			// them): every version a reader holds must stay as it was
			// published, at both lifetimes.
			var held *tx.ReadView
			checksLeft := 0
			defer func() {
				if held != nil {
					held.Close()
				}
			}()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := func() error {
					if held == nil {
						held, checksLeft = m.AcquireRead(), 1
						if i%4 == 3 {
							checksLeft = 3
						}
					}
					rv := held
					if checksLeft--; checksLeft == 0 {
						held = nil
						defer rv.Close()
					}
					view, v := rv.View(), rv.Version()
					want := frozenAt(v)
					if want == nil {
						return fmt.Errorf("seed %d reader %d: no oracle for version %d", cfg.Seed, r, v)
					}
					e := exprs[rrng.Intn(len(exprs))]
					got, err1 := queryFingerprint(view, e)
					exp, err2 := queryFingerprint(want, e)
					if err1 != nil || err2 != nil {
						return fmt.Errorf("seed %d reader %d version %d query %q: paged err %v, oracle err %v",
							cfg.Seed, r, v, e.Source(), err1, err2)
					}
					if got != exp {
						return fmt.Errorf("seed %d reader %d version %d query %q diverged\npaged:  %.400s\noracle: %.400s",
							cfg.Seed, r, v, e.Source(), got, exp)
					}
					// Periodic whole-document agreement on top of the query
					// check — catches structural divergence queries miss.
					if i%8 == 0 {
						gs, err1 := serializeErr(view)
						ws, err2 := serializeErr(want)
						if err1 != nil || err2 != nil || gs != ws {
							return fmt.Errorf("seed %d reader %d version %d: serialized documents diverged (errs %v/%v)",
								cfg.Seed, r, v, err1, err2)
						}
					}
					return nil
				}(); err != nil {
					fail(err)
					return
				}
			}
		}(r)
	}

	step := 0
	for batch := 1; batch <= cfg.Batches; batch++ {
		txn := m.Begin()
		pending := genBatch(t, cfg.Seed, rng, txn, batch, step, cfg.BatchOps)
		step += cfg.BatchOps
		if rng.Intn(3) == 0 {
			// Aborted batches must be invisible to every reader.
			txn.Abort()
			continue
		}
		for _, o := range pending {
			if err := o.applyNaive(oracle); err != nil {
				t.Fatalf("seed %d batch %d: oracle %v: %v", cfg.Seed, batch, o, err)
			}
		}
		next := m.Version() + 1 // the driver is the only writer
		verMu.Lock()
		versions[next] = oracle.Clone()
		verMu.Unlock()
		if err := txn.Commit(); err != nil {
			t.Fatalf("seed %d batch %d: commit: %v", cfg.Seed, batch, err)
		}
	}
	halt()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Final whole-document agreement of the current version, its
	// invariants and names: only the names committed batches brought.
	cur, _ := m.PinCheckpoint()
	if err := cur.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: invariants broken after concurrent run: %v", cfg.Seed, err)
	}
	got, err1 := serializeErr(cur)
	want, err2 := serializeErr(oracle)
	if err1 != nil || err2 != nil {
		t.Fatalf("seed %d: final serialize: %v / %v", cfg.Seed, err1, err2)
	}
	if got != want {
		t.Fatalf("seed %d: final states diverged\npaged:  %.600s\noracle: %.600s", cfg.Seed, got, want)
	}
	if err := sameNames(cur, oracle); err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	// The built store is version 0: no commit may have written it.
	if base, err := serializeErr(paged); err != nil || base != built {
		t.Fatalf("seed %d: version 0 was written (err %v)\nbuilt: %.600s\nnow:   %.600s", cfg.Seed, err, built, base)
	}
}
