package mxq

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"mxq/internal/ckpt"
	"mxq/internal/repl"
	"mxq/internal/serialize"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
	"mxq/internal/xupdate"
)

// Document is one stored XML document. Its read methods (Query,
// QueryValue, SerializeTo, XML) come from the embedded queries,
// each call leasing the current committed version.
type Document struct {
	queries
	name string
	db   *Database
	mgr  *tx.Manager
	log  *wal.Log

	// Online durability (nil without Options.Dir): the checkpointer
	// streams LSN-pinned snapshots outside any lock into the chunk store
	// cs; the auto goroutine (only with Options.CheckpointEvery) runs it
	// when the WAL tail exceeds the policy.
	cs       ChunkStore
	ckpter   *ckpt.Checkpointer
	autoC    chan struct{}
	stopC    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// tracker registers live replication subscriptions (nil without a
	// durability directory). Its Barrier fences the checkpointer's WAL
	// prune: no segment a live follower still needs is ever deleted.
	tracker *repl.Tracker
}

// Name returns the document's name.
func (d *Document) Name() string { return d.name }

// queries is the read-only method set of a document at one committed
// version, written once over the read seam. Document embeds it leasing
// the current version per call; Snapshot embeds it reading the version
// it pinned.
type queries struct {
	// read runs fn against an immutable copy-on-write view of one
	// committed version. No lock is held while fn runs, so reads fully
	// overlap commits; the view must not escape fn.
	read func(fn func(v xenc.DocView) error) error
}

// readCurrent is Document's read: a view of the current committed
// version for the length of the call.
func (d *Document) readCurrent(fn func(v xenc.DocView) error) error {
	rv := d.mgr.AcquireRead()
	defer rv.Close()
	return fn(rv.View())
}

// eval runs a compiled query and materializes its result inside one
// read.
func (r *queries) eval(expr *xpath.Expr, vars map[string]xpath.Value) (res Result, err error) {
	err = r.read(func(v xenc.DocView) (inner error) {
		res, inner = materialize(v, expr, vars)
		return inner
	})
	return res, err
}

// Item is one materialized query result: results are copied out of the
// snapshot the query ran against, so they stay valid across later
// updates.
//
// An element item's XML and Value are the two halves of one string, one
// allocation filled by one walk; either keeps both alive, so a caller
// that keeps only a large element's Value should strings.Clone it.
type Item struct {
	// Kind is "element", "text", "comment", "processing-instruction",
	// "attribute", "document", "number", "string" or "boolean".
	Kind string
	// Value is the item's string value.
	Value string
	// XML is the serialized form for element items ("" otherwise).
	XML string
}

// Result is a materialized query result sequence.
type Result []Item

// Strings returns the items' string values.
func (r Result) Strings() []string {
	out := make([]string, len(r))
	for i, it := range r {
		out[i] = it.Value
	}
	return out
}

// Query compiles and runs an XPath expression as a read-only
// transaction against one committed version — the current one on a
// Document, the pinned one on a Snapshot. Evaluation holds no lock, so
// queries never block (and are never blocked by) concurrent commits.
func (r *queries) Query(q string) (Result, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return r.eval(expr, nil)
}

// QueryVars runs a query with variable bindings (values are strings).
func (d *Document) QueryVars(q string, vars map[string]string) (Result, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return d.eval(expr, bindVars(vars))
}

// Prepared is a compiled query bound to a document. Compiling once and
// running many times skips the parse on every execution; the compiled
// form is safe for concurrent use. Each Run evaluates against the
// snapshot of the version committed at that moment: a run before a
// commit sees the old data, a run after it sees the new — never a blend.
type Prepared struct {
	doc  *Document
	expr *xpath.Expr
}

// Prepare compiles a query for repeated execution against this document.
func (d *Document) Prepare(q string) (*Prepared, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{doc: d, expr: expr}, nil
}

// Run executes the prepared query; vars may be nil.
func (p *Prepared) Run(vars map[string]string) (Result, error) {
	return p.doc.eval(p.expr, bindVars(vars))
}

// RunSnapshot executes the prepared query against a pinned snapshot
// instead of the current committed version, so a cached plan and a held
// read version compose (a session's multi-request snapshot read reuses
// both). The snapshot should be of the document the query was prepared
// against.
func (p *Prepared) RunSnapshot(s *Snapshot, vars map[string]string) (Result, error) {
	return s.eval(p.expr, bindVars(vars))
}

// bindVars converts string bindings to XPath values (nil stays nil).
func bindVars(vars map[string]string) map[string]xpath.Value {
	if len(vars) == 0 {
		return nil
	}
	bound := make(map[string]xpath.Value, len(vars))
	for k, v := range vars {
		bound[k] = xpath.String(v)
	}
	return bound
}

// Source returns the query text.
func (p *Prepared) Source() string { return p.expr.Source() }

// Explain renders the compiled evaluation plan: one line per location
// step showing whether it runs as a sequence-level staircase scan
// ("seq", with context pruning and no per-step sort), a scan with a
// fused early-exit positional counter ("seq, early-exit pos=n"), or the
// numbering operator ("per-node": one scan per context node, for
// predicate shapes whose semantics need per-context numbering, like
// last() and positions on reverse axes). Collapsed descendant shorthands
// are marked "fused //"; a filter expression's predicates are listed
// one per line.
func (p *Prepared) Explain() string { return p.expr.Explain() }

// QueryValue runs a query and returns its XPath string() value: the
// first item's string value, or "" for an empty result. Nothing else is
// materialized.
func (r *queries) QueryValue(q string) (s string, err error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return "", err
	}
	err = r.read(func(v xenc.DocView) error {
		val, err := expr.Eval(v)
		if err == nil {
			s = xpath.StringOf(v, val)
		}
		return err
	})
	return s, err
}

func materialize(v xenc.DocView, expr *xpath.Expr, vars map[string]xpath.Value) (Result, error) {
	val, err := expr.EvalVars(v, vars)
	if err != nil {
		return nil, err
	}
	switch x := val.(type) {
	case xpath.NodeSet:
		res := make(Result, 0, len(x))
		var sc scratch
		for _, n := range x {
			res = append(res, sc.node(v, n))
		}
		return res, nil
	case xpath.Number:
		return Result{{Kind: "number", Value: xpath.FormatNumber(float64(x))}}, nil
	case xpath.String:
		return Result{{Kind: "string", Value: string(x)}}, nil
	case xpath.Boolean:
		return Result{{Kind: "boolean", Value: fmt.Sprint(bool(x))}}, nil
	}
	return nil, fmt.Errorf("mxq: unexpected result type %T", val)
}

// scratch is where one result's elements are serialized before each is
// copied out as one string.
type scratch struct{ xml, text []byte }

func (sc *scratch) node(v xenc.DocView, n xpath.Node) Item {
	if n.Pre == xpath.DocNodePre {
		return Item{Kind: "document", Value: xpath.StringValue(v, n)}
	}
	if n.Attr != xpath.NoAttr {
		return Item{Kind: "attribute", Value: xpath.StringValue(v, n)}
	}
	it := Item{Value: v.Value(n.Pre)}
	switch v.Kind(n.Pre) {
	case xenc.KindElem:
		// Append fails only on a rank that is not a live node, and n is one.
		sc.xml, sc.text, _ = serialize.Append(sc.xml[:0], sc.text[:0], v, n.Pre, serialize.Options{})
		split := len(sc.xml)
		sc.xml = append(sc.xml, sc.text...)
		s := string(sc.xml)
		it.Kind, it.XML, it.Value = "element", s[:split], s[split:]
	case xenc.KindText:
		it.Kind = "text"
	case xenc.KindComment:
		it.Kind = "comment"
	case xenc.KindPI:
		it.Kind = "processing-instruction"
	}
	return it
}

// Update parses an XUpdate modification list and applies it in a single
// transaction (parse → select → bulk structural updates → WAL →
// commit).
func (d *Document) Update(xupdateXML string) (xupdate.Result, error) {
	res, _, err := d.UpdateLSN(xupdateXML)
	return res, err
}

// Begin starts a write transaction. It is snapshot-isolated, not
// serializable: it reads the version current at Begin plus its own
// writes, and commit checks only write conflicts, so two transactions
// that each select what the other updates can both commit. For a serial
// outcome run them one at a time, as mxqd does per document.
func (d *Document) Begin() *Tx {
	return &Tx{inner: d.mgr.Begin(), doc: d}
}

// Version returns the document's committed version: the number of write
// transactions committed so far. Every query observes exactly one
// version.
func (d *Document) Version() uint64 { return d.mgr.Version() }

// SerializeTo writes the document as XML. Serialization runs against
// an immutable snapshot, so a slow writer never stalls commits.
func (r *queries) SerializeTo(w io.Writer, indent string) error {
	return r.read(func(v xenc.DocView) error {
		return serialize.Document(w, v, serialize.Options{Indent: indent})
	})
}

// XML returns the serialized document.
func (r *queries) XML() (string, error) {
	var b strings.Builder
	if err := r.SerializeTo(&b, ""); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Stats describe a document's storage state.
type Stats struct {
	LiveNodes int     // live nodes
	Tuples    int     // tuples including unused space
	Pages     int     // logical pages
	PageSize  int     // tuples per page
	Fill      float64 // live / total
	Names     int     // interned qualified names (only commits add one)
	Commits   uint64  // committed write transactions
	Aborts    uint64  // aborted write transactions

	// Durability state (zero without a durability directory).
	Checkpoints uint64 // checkpoints completed this session (manual + auto)
	WALBytes    int64  // WAL bytes beyond the last checkpoint (approximate)
	WALRecords  int    // committed records beyond the last checkpoint

	// Incremental-checkpoint economics, cumulative over this session.
	// CkptChunksReused counts manifest references that resolved to chunks
	// already in the store; CkptDedupeRatio is reused/(written+reused) —
	// near 1.0 means checkpoints cost O(churn), not O(document).
	// CkptBytesStored is what the written chunks take on disk (the default
	// local store deflates them) and CkptBytesCompacted the write
	// amplification of chunk garbage collection: surviving chunks that
	// store copied out of mostly-dead pack files, in stored bytes (both 0
	// for a store that keeps no such count).
	CkptBytesWritten   uint64  // chunk bytes actually written by checkpoints
	CkptBytesStored    uint64  // bytes those chunks take on disk
	CkptBytesCompacted uint64  // stored chunk bytes rewritten by chunk GC
	CkptChunksWritten  uint64  // chunks written (missing from the store)
	CkptChunksReused   uint64  // chunks reused (already present)
	CkptDedupeRatio    float64 // reused / (written + reused)
}

// Stats returns storage statistics. The store figures and the commit
// count are read from the current committed version.
func (d *Document) Stats() Stats {
	ms := d.mgr.Stats()
	s := Stats{
		LiveNodes: ms.LiveNodes,
		Tuples:    ms.Tuples,
		Pages:     ms.Pages,
		PageSize:  ms.PageSize,
		Names:     ms.Names,
		Commits:   ms.Commits,
		Aborts:    ms.Aborts,
	}
	if s.Tuples > 0 {
		s.Fill = float64(s.LiveNodes) / float64(s.Tuples)
	}
	if d.ckpter != nil {
		s.WALBytes, s.WALRecords = d.log.TailStatsAbove(d.ckpter.LastLSN())
		cs := d.ckpter.Stats()
		s.Checkpoints = cs.Checkpoints
		s.CkptBytesWritten = cs.BytesWritten
		s.CkptBytesStored = cs.BytesStored
		s.CkptBytesCompacted = cs.BytesCompacted
		s.CkptChunksWritten = cs.ChunksWritten
		s.CkptChunksReused = cs.ChunksReused
		if total := cs.ChunksWritten + cs.ChunksReused; total > 0 {
			s.CkptDedupeRatio = float64(cs.ChunksReused) / float64(total)
		}
	}
	return s
}

// Checkpoint writes an *online* checkpoint: the current committed
// version, an immutable (store, LSN) pair, is pinned by one atomic
// load, and the O(document) image streams from it outside any lock —
// commits keep landing at full speed while it writes. Completion is the
// atomic publication of the LSN-stamped image file, and only WAL
// segments wholly below the pinned LSN are deleted, so a commit racing
// the checkpoint is never lost: its record lives in a segment the prune
// keeps. Requires a durability directory.
func (d *Document) Checkpoint() error {
	if d.ckpter == nil {
		return fmt.Errorf("mxq: document %q has no durability directory", d.name)
	}
	_, err := d.ckpter.Run()
	return err
}

// maybeAutoCheckpoint nudges the background checkpointer when the WAL
// tail has outgrown the policy. Called after every commit; the
// non-blocking send coalesces bursts.
func (d *Document) maybeAutoCheckpoint() {
	if d.autoC == nil || !d.checkpointDue() {
		return
	}
	select {
	case d.autoC <- struct{}{}:
	default:
	}
}

// checkpointDue reports whether the WAL tail beyond the newest
// checkpoint has reached the auto-checkpoint policy.
func (d *Document) checkpointDue() bool {
	_, records := d.log.TailStatsAbove(d.ckpter.LastLSN())
	return records >= d.db.opts.CheckpointEvery.Records
}

// close shuts the document's durability machinery down in dependency
// order: the auto-checkpoint goroutine is drained first, then the
// checkpointer is closed —
// which waits out any in-flight *manual* Run, including its WAL prune —
// and only then is the WAL released. finalCkpt additionally writes one
// last checkpoint before closing, so a reopen recovers from the image
// alone (and a never-checkpointed document is not lost when its segments
// are detached).
func (d *Document) close(finalCkpt bool) error {
	d.drainAuto()
	var first error
	if d.ckpter != nil {
		if finalCkpt {
			if _, err := d.ckpter.Run(); err != nil && !errors.Is(err, ckpt.ErrClosed) {
				first = err
			}
		}
		d.ckpter.Close()
	}
	if d.log != nil {
		if err := d.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// drainAuto stops the auto-checkpoint goroutine, waiting out a Run it is
// inside: afterwards no background checkpoint can start.
func (d *Document) drainAuto() {
	if d.stopC != nil {
		d.stopOnce.Do(func() { close(d.stopC) })
		d.wg.Wait()
	}
}

func (d *Document) autoCheckpointLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stopC:
			return
		case <-d.autoC:
			// A burst queues a second nudge behind the checkpoint that is
			// about to absorb it; by the time it is dequeued the tail it
			// announced is covered, and running again would publish an
			// identical image.
			if !d.checkpointDue() {
				continue
			}
			if err := d.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "mxq: auto-checkpoint of %q: %v\n", d.name, err)
			}
		}
	}
}

// CheckInvariants validates the storage invariants (testing hook).
func (d *Document) CheckInvariants() error { return d.mgr.CheckInvariants() }

// Tx is a write transaction over one document. It supports queries (with
// read-your-writes semantics) and XUpdate lists; Commit applies the
// Figure 8 protocol. Its isolation level is snapshot isolation (see
// Document.Begin).
type Tx struct {
	inner *tx.Tx
	doc   *Document
}

// Query runs an XPath expression against the transaction image.
func (t *Tx) Query(q string) (Result, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return materialize(t.inner, expr, nil)
}

// Update applies an XUpdate modification list inside the transaction.
func (t *Tx) Update(xupdateXML string) (xupdate.Result, error) {
	mods, err := xupdate.ParseString(xupdateXML)
	if err != nil {
		return xupdate.Result{}, err
	}
	return xupdate.Execute(t.inner, mods)
}

// Commit makes the transaction durable and visible. Under load,
// concurrent commits share their WAL fsync (group commit), and a commit
// that pushes the WAL tail past Options.CheckpointEvery nudges the
// background checkpointer.
func (t *Tx) Commit() error {
	if err := t.inner.Commit(); err != nil {
		return err
	}
	t.doc.maybeAutoCheckpoint()
	return nil
}

// Abort discards the transaction.
func (t *Tx) Abort() { t.inner.Abort() }
