package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mxq"
	"mxq/client"
	"mxq/internal/chunkstore"
	"mxq/internal/ckpt"
	"mxq/internal/core"
	"mxq/internal/serialize"
	"mxq/internal/shred"
	"mxq/internal/staircase"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/wire"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
	"mxq/internal/xupdate"
)

// perLayer lists the per-layer metrics of the traced run in report
// order. Counts marked exact repeat bit for bit across runs of one seed.
var perLayer = []struct {
	Name, Unit string
	Exact      bool
}{
	{"shred.parse_ms", "ms", false},
	{"core.build_ms", "ms", false},
	{"ckpt.full_ms", "ms", false},
	{"ckpt.full_bytes", "B", true},
	{"chunkstore.put_us", "us", false},
	{"xpath.parse_us", "us", false},
	{"xpath.eval_ms", "ms", false},
	{"staircase.desc_ns_per_tuple", "ns", false},
	{"xpath.tuples_per_result", "count", true},
	{"xpath.pernode_steps", "count", true},
	{"mxq.materialize_ms", "ms", false},
	{"serialize.mb_per_s", "MB/s", false},
	{"mxq.alloc_kb_per_op", "kB", false},
	{"wire.resp_encode_us", "us", false},
	{"wire.resp_decode_us", "us", false},
	{"wire.resp_bytes", "B", true},
	{"tx.acquire_fast_ns", "ns", false},
	{"tx.acquire_rebuild_us", "us", false},
	{"server.ping_rtt_us", "us", false},
	{"server.residual_us", "us", false},
	{"xupdate.parse_us", "us", false},
	{"xupdate.apply_us", "us", false},
	{"tx.commit_us", "us", false},
	{"tx.alloc_kb_per_commit", "kB", false},
	{"wal.append_us", "us", false},
	{"wal.bytes_per_commit", "B", true},
	{"wal.sync_us", "us", false},
	{"wal.syncs_per_commit", "count", true},
	{"ckpt.incr_ms", "ms", false},
	{"ckpt.incr_bytes", "B", true},
	{"ckpt.chunks_written", "count", true},
	{"ckpt.chunks_reused", "count", true},
	{"ckpt.bytes_per_commit", "B", true},
	{"ckpt.recover_image_ms", "ms", false},
	{"ckpt.replay_us_per_record", "us", false},
}

// Op classes of the traced replay. Every traced run replays all four:
// the workload's own class at one round's length, the others as short
// probes, so that every layer metric is defined on every workload.
const (
	classScan   = "scan"
	classFetch  = "fetch"
	classUpdate = "update"
	classMixed  = "mixed"
)

var classOf = map[string]string{scanRO: classScan, fetchRO: classFetch, updateWO: classUpdate, mixedRW: classMixed}

// readsPerCommit is the mixed class's interleave: the served mixed_rw
// run answers about this many reads per writer commit.
const readsPerCommit = 20

// layers replays a workload's operations in-process, stage by stage
// through each layer's exported functions. It keeps two copies of the
// document built from one parse: lib, an mxq.Database on a durable
// directory, is the path the server takes (Prepared.Run, Tx.Update,
// Tx.Commit, Document.Checkpoint); raw, a tx.Manager over its own
// core.Store and WAL, is where the same operation is taken apart
// (AcquireRead, Expr.Eval, serialize.Subtree, xupdate.ParseString,
// Execute, Commit). Every commit is applied to both, so they stay equal.
type layers struct {
	cfg config
	tr  *tracer
	ops int // op ids handed out

	dir      string
	db       *mxq.Database
	doc      *mxq.Document
	prepared map[string]*mxq.Prepared

	log   *wal.Log
	mgr   *tx.Manager
	exprs map[string]*xpath.Expr

	ckptParent  int  // span the chunk store's Put spans hang under
	sinceCkpt   int  // commits since the last checkpoint of lib
	afterCommit bool // raw's next AcquireRead is the first after a commit

	frame bytes.Buffer
	ser   bytes.Buffer

	untraced  map[string][]float64 // class/root span → op times (ns) with tracing off
	respBytes map[string][]float64 // class → response frame sizes
	serBytes  map[string]int64     // class → bytes serialize.Subtree wrote
	ckptStats []mxq.Stats          // lib's stats after each checkpoint
}

// timedStore wraps lib's chunk store so that every Put of a checkpoint
// is a span.
type timedStore struct {
	chunkstore.Store
	l *layers
}

func (t timedStore) Put(h chunkstore.Hash, data []byte) error {
	id := t.l.tr.begin("chunkstore.put", t.l.ckptParent, 0)
	err := t.Store.Put(h, data)
	t.l.tr.end(id)
	return err
}

func (l *layers) libDir() string { return filepath.Join(l.dir, "lib") }

// setup builds both copies: one shred.Parse, core.Build for raw, and
// LoadXMLString for lib (which parses and builds again inside).
func (l *layers) setup(xml string) error {
	l.tr.class = "setup"
	root := l.tr.begin("setup", 0, 0)
	defer l.tr.end(root)

	id := l.tr.begin("shred.parse", root, 0)
	tree, err := shred.Parse(strings.NewReader(xml), shred.Options{})
	l.tr.end(id)
	if err != nil {
		return err
	}
	id = l.tr.begin("core.build", root, 0)
	store, err := core.Build(tree, core.Options{})
	l.tr.end(id)
	if err != nil {
		return err
	}
	rawDir := filepath.Join(l.dir, "raw")
	if err := os.MkdirAll(rawDir, 0o755); err != nil {
		return err
	}
	if l.log, err = wal.Open(filepath.Join(rawDir, docName+".wal"), wal.Options{NoSync: true}); err != nil {
		return err
	}
	l.mgr = tx.NewManager(store, l.log)

	id = l.tr.begin("mxq.load", root, 0)
	defer l.tr.end(id)
	if err := l.openLib(); err != nil {
		return err
	}
	l.doc, err = l.db.LoadXMLString(docName, xml)
	return err
}

func (l *layers) openLib() error {
	var err error
	l.db, err = mxq.Open(mxq.Options{
		Dir: l.libDir(), NoSync: true,
		ChunkStore: func(doc string) mxq.ChunkStore {
			return timedStore{chunkstore.NewDir(ckpt.ChunkDir(l.libDir(), doc)), l}
		},
	})
	l.prepared = map[string]*mxq.Prepared{}
	return err
}

// checkpoint runs lib's checkpointer under a span: ckpt.full for the
// first image, the given name after it. Checkpoints are traced in both
// passes of a replay; they are not part of any op.
func (l *layers) checkpoint(name string) error {
	if len(l.ckptStats) == 0 {
		name = "ckpt.full"
	}
	class, on := l.tr.class, l.tr.on
	l.tr.class, l.tr.on = "ckpt", true
	id := l.tr.begin(name, 0, 0)
	l.ckptParent = id
	err := l.doc.Checkpoint()
	l.tr.end(id)
	l.ckptParent, l.tr.class, l.tr.on = 0, class, on
	l.sinceCkpt = 0
	l.ckptStats = append(l.ckptStats, l.doc.Stats())
	return err
}

// read is one query op: the pipeline the server and client run for it,
// minus the sockets, then the same query taken apart on raw.
func (l *layers) read(q string) error {
	l.ops++
	op, tr := l.ops, l.tr
	start := time.Now()
	root := tr.begin("op.read", 0, op)

	prep := l.prepared[q]
	if prep == nil {
		// A prepared-cache miss, as in the server's session.
		id := tr.begin("xpath.parse", root, op)
		var err error
		prep, err = l.doc.Prepare(q)
		tr.end(id)
		if err != nil {
			return err
		}
		l.prepared[q] = prep
	}
	id := tr.begin("mxq.run", root, op)
	res, err := prep.Run(nil)
	tr.end(id)
	if err != nil {
		return err
	}

	// The server's encodeResult.
	id = tr.begin("wire.encode", root, op)
	var p wire.PayloadBuilder
	p.Uvarint(uint64(len(res)))
	for _, it := range res {
		p.Byte(wire.KindCode(it.Kind)).String(it.Value).String(it.XML)
	}
	tr.end(id)
	items, err := l.roundTrip(root, op, p.Bytes(), func(r *wire.PayloadReader) (int, error) {
		// The client's Query decode.
		n, err := r.Uvarint()
		if err != nil {
			return 0, err
		}
		items := make([]client.Item, 0, n)
		for i := uint64(0); i < n; i++ {
			kind, err := r.Byte()
			if err != nil {
				return 0, err
			}
			value, err := r.String()
			if err != nil {
				return 0, err
			}
			xml, err := r.String()
			if err != nil {
				return 0, err
			}
			items = append(items, client.Item{Kind: wire.KindName(kind), Value: value, XML: xml})
		}
		return len(items), nil
	})
	tr.end(root)
	if err != nil {
		return err
	}
	if items != len(res) {
		return fmt.Errorf("%s: %d items decoded, %d encoded", q, items, len(res))
	}
	if !tr.on {
		l.untraced[tr.class+"/op.read"] = append(l.untraced[tr.class+"/op.read"], float64(time.Since(start).Nanoseconds()))
	}
	return l.readApart(q, op)
}

// roundTrip frames a response payload into a buffer, reads it back and
// decodes it, as the two ends of a connection do.
func (l *layers) roundTrip(root, op int, payload []byte, decode func(*wire.PayloadReader) (int, error)) (int, error) {
	tr := l.tr
	l.frame.Reset()
	id := tr.begin("wire.write_frame", root, op)
	err := wire.WriteFrame(&l.frame, wire.Frame{ID: uint64(op), Op: wire.StatusOK, Payload: payload})
	tr.end(id)
	if err != nil {
		return 0, err
	}
	l.respBytes[tr.class] = append(l.respBytes[tr.class], float64(l.frame.Len()))
	id = tr.begin("wire.read_frame", root, op)
	f, err := wire.ReadFrame(&l.frame, 0)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("wire.decode", root, op)
	n, err := decode(wire.NewPayloadReader(f.Payload))
	tr.end(id)
	return n, err
}

// readApart evaluates q on raw in separate stages: acquire the read
// view, evaluate the expression, serialize each element result.
func (l *layers) readApart(q string, op int) error {
	tr := l.tr
	expr := l.exprs[q]
	if expr == nil {
		var err error
		if expr, err = xpath.Parse(q); err != nil {
			return err
		}
		l.exprs[q] = expr
	}
	root := tr.begin("apart.read", 0, op)
	defer tr.end(root)
	name := "tx.acquire"
	if l.afterCommit {
		name, l.afterCommit = "tx.acquire.rebuild", false
	}
	id := tr.begin(name, root, op)
	rv := l.mgr.AcquireRead()
	tr.end(id)
	defer rv.Close()
	v := rv.View()
	id = tr.begin("xpath.eval", root, op)
	val, err := expr.Eval(v)
	tr.end(id)
	if err != nil {
		return err
	}
	ns, _ := val.(xpath.NodeSet)
	l.ser.Reset()
	id = tr.begin("serialize.subtree", root, op)
	for _, n := range ns {
		if n.Attr == xpath.NoAttr && n.Pre != xpath.DocNodePre && v.Kind(n.Pre) == xenc.KindElem {
			if err = serialize.Subtree(&l.ser, v, n.Pre, serialize.Options{}); err != nil {
				break
			}
		}
	}
	tr.end(id)
	if tr.on {
		l.serBytes[tr.class] += int64(l.ser.Len())
	}
	return err
}

// update is one commit op on lib, then the same commit taken apart on
// raw. Lib is checkpointed every CkptRecords commits, the cadence the
// served run's policy follows.
func (l *layers) update(u updOp) error {
	l.ops++
	op, tr := l.ops, l.tr
	start := time.Now()
	root := tr.begin("op.update", 0, op)
	res, err := l.commitLib(u, root, op)
	if err != nil {
		return err
	}
	id := tr.begin("wire.encode", root, op)
	var p wire.PayloadBuilder
	p.Uvarint(uint64(res.Ops)).Uvarint(uint64(res.Affected)).Uvarint(uint64(l.sinceCkpt))
	tr.end(id)
	_, err = l.roundTrip(root, op, p.Bytes(), func(r *wire.PayloadReader) (int, error) {
		for i := 0; i < 3; i++ {
			if _, err := r.Uvarint(); err != nil {
				return 0, err
			}
		}
		return 3, nil
	})
	tr.end(root)
	if err != nil {
		return err
	}
	if !tr.on {
		l.untraced[tr.class+"/op.update"] = append(l.untraced[tr.class+"/op.update"], float64(time.Since(start).Nanoseconds()))
	}
	if err := l.commitRaw(u, op); err != nil {
		return err
	}
	if l.sinceCkpt >= l.cfg.CkptRecords {
		return l.checkpoint("ckpt.incr")
	}
	return nil
}

func (l *layers) commitLib(u updOp, root, op int) (xupdate.Result, error) {
	tr := l.tr
	id := tr.begin("tx.begin", root, op)
	t := l.doc.Begin()
	tr.end(id)
	id = tr.begin("xupdate.apply", root, op)
	res, err := t.Update(u.XU)
	tr.end(id)
	if err != nil {
		t.Abort()
		return res, err
	}
	if res.Affected != 1 {
		t.Abort()
		return res, fmt.Errorf("commit touched %d nodes, want 1: %s", res.Affected, u.XU)
	}
	id = tr.begin("tx.commit", root, op)
	err = t.Commit()
	tr.end(id)
	l.sinceCkpt++
	return res, err
}

func (l *layers) commitRaw(u updOp, op int) error {
	tr := l.tr
	root := tr.begin("apart.update", 0, op)
	defer tr.end(root)
	id := tr.begin("xupdate.parse", root, op)
	mods, err := xupdate.ParseString(u.XU)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("tx.begin.raw", root, op)
	t := l.mgr.Begin()
	tr.end(id)
	id = tr.begin("xupdate.execute", root, op)
	_, err = xupdate.Execute(t, mods)
	tr.end(id)
	if err != nil {
		t.Abort()
		return err
	}
	id = tr.begin("tx.commit.raw", root, op)
	err = t.Commit()
	tr.end(id)
	l.afterCommit = true
	return err
}

// replay runs one class twice over equal-length op sequences: first with
// tracing off, then traced. Each pass starts with an empty prepared
// cache, as a new session does.
func (l *layers) replay(class string, n int, op func(i int) error) error {
	l.tr.class = class
	for pass := 0; pass < 2; pass++ {
		l.tr.on = pass == 1
		l.prepared = map[string]*mxq.Prepared{}
		for i := 0; i < n; i++ {
			if err := op(pass*n + i); err != nil {
				l.tr.on = true
				return fmt.Errorf("%s op %d: %w", class, pass*n+i, err)
			}
		}
	}
	return nil
}

// allocKB returns the kilobytes fn allocated, per call of fn.
func allocKB(calls int, fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(calls), err
}

// countingView counts tuple inspections: every read of a column of the
// pre/size/level table.
type countingView struct {
	xenc.DocView
	n int64
}

func (c *countingView) Size(p xenc.Pre) xenc.Size   { c.n++; return c.DocView.Size(p) }
func (c *countingView) Level(p xenc.Pre) xenc.Level { c.n++; return c.DocView.Level(p) }
func (c *countingView) Kind(p xenc.Pre) xenc.Kind   { c.n++; return c.DocView.Kind(p) }
func (c *countingView) Name(p xenc.Pre) int32       { c.n++; return c.DocView.Name(p) }
func (c *countingView) Value(p xenc.Pre) string     { c.n++; return c.DocView.Value(p) }

// traceReport is what one workload's traced run produced.
type traceReport struct {
	Workload    string             `json:"workload"`
	Host        hostStamp          `json:"host"`
	HostCalibMS float64            `json:"host_calib_ms"`
	Config      config             `json:"config"`
	Layers      map[string]float64 `json:"layers"`
	// Coverage is Σ stage self times ÷ in-process op time per class;
	// Overhead is traced ÷ untraced in-process op time minus one.
	Coverage  map[string]float64 `json:"coverage"`
	Overhead  map[string]float64 `json:"tracing_overhead"`
	OpCounts  map[string]int     `json:"traced_ops"`
	Spans     int                `json:"spans"`
	SpanFile  string             `json:"span_file"`
	Attempted int                `json:"attempted"`
}

// runTrace makes one workload's traced run.
func runTrace(ctx context.Context, cfg config, workload, bin, scratch, spanFile string) (*traceReport, error) {
	dir, err := os.MkdirTemp(scratch, workload+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l := &layers{
		cfg: cfg, tr: newTracer(), dir: dir,
		exprs: map[string]*xpath.Expr{}, untraced: map[string][]float64{},
		respBytes: map[string][]float64{}, serBytes: map[string]int64{},
	}
	l.tr.on = true
	rep := &traceReport{
		Workload: workload, Config: cfg,
		Layers: map[string]float64{}, Coverage: map[string]float64{}, Overhead: map[string]float64{},
		OpCounts: map[string]int{}, SpanFile: spanFile,
	}
	xml, err := genDoc(cfg.SF, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := l.setup(xml); err != nil {
		return nil, err
	}
	defer func() {
		l.db.Close()
		l.log.Close()
	}()

	// Seeding commits and the first, full checkpoint, as in the served
	// run's setup.
	l.tr.class = "seeding"
	for _, u := range newUpdGen(cfg.Seed, streamSeeding, cfg.SF, true).take(cfg.SeedCommits) {
		if err := l.update(u); err != nil {
			return nil, fmt.Errorf("seeding: %w", err)
		}
	}
	if len(l.ckptStats) == 0 {
		if err := l.checkpoint(""); err != nil {
			return nil, err
		}
	}

	// The four classes: one round of the workload's own ops, probes of
	// the others.
	main := classOf[workload]
	length := func(class, w string, probe int) int {
		if class == main {
			return max(probe, cfg.Ops[w]/rounds)
		}
		return probe
	}
	fetchSet, err := (&oracle{doc: l.doc}).fetchQueries()
	if err != nil {
		return nil, err
	}
	n := length(classScan, scanRO, 2*len(scanQueries))
	scans := scanPlan(cfg, n)
	if err := l.replay(classScan, n, func(i int) error { return l.read(scans[i%n]) }); err != nil {
		return nil, err
	}
	rep.OpCounts[classScan] = n
	n = length(classFetch, fetchRO, 8*len(fetchSet))
	if err := l.replay(classFetch, n, func(i int) error { return l.read(fetchSet[i%len(fetchSet)]) }); err != nil {
		return nil, err
	}
	rep.OpCounts[classFetch] = n
	n = length(classUpdate, updateWO, cfg.CkptRecords/2)
	updates := newUpdGen(cfg.Seed, streamUpdates, cfg.SF, false).take(2 * n)
	if err := l.replay(classUpdate, n, func(i int) error { return l.update(updates[i]) }); err != nil {
		return nil, err
	}
	rep.OpCounts[classUpdate] = n
	n = length(classMixed, mixedRW, 40*readsPerCommit)
	points, _ := pointPlan(cfg, n)
	writer := newUpdGen(cfg.Seed, streamWriter, cfg.SF, true)
	err = l.replay(classMixed, n, func(i int) error {
		if i%readsPerCommit == readsPerCommit-1 {
			if err := l.update(writer.next()); err != nil {
				return err
			}
		}
		return l.read(points[i%n])
	})
	if err != nil {
		return nil, err
	}
	rep.OpCounts[classMixed] = n
	l.tr.on = true

	if err := l.micro(rep, scans, fetchSet); err != nil {
		return nil, err
	}
	if err := l.walScratch(rep); err != nil {
		return nil, err
	}
	if err := l.recoveryStage(); err != nil {
		return nil, err
	}
	ping, wireP50, err := wireProbe(ctx, cfg, workload, bin, scratch, xml, scans, fetchSet, points)
	if err != nil {
		return nil, err
	}
	rep.Layers["server.ping_rtt_us"] = ping / 1e3
	l.summarise(rep, main, wireP50)

	rep.Spans = len(l.tr.spans)
	rep.Attempted = l.ops
	if err := writeSpans(spanFile, l.tr.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// micro takes the measurements that are loops of one call rather than
// stages of an op.
func (l *layers) micro(rep *traceReport, scans, fetchSet []string) error {
	l.tr.class = "micro"
	rv := l.mgr.AcquireRead()
	defer rv.Close()
	v := rv.View()

	// One descendant staircase join from the root over the whole plane.
	name, ok := v.Names().Lookup("keyword")
	if !ok {
		return errors.New("document has no keyword element")
	}
	const joins = 5
	start := time.Now()
	for i := 0; i < joins; i++ {
		staircase.EvalAxis(v, []xenc.Pre{v.Root()}, staircase.AxisDescendant, staircase.Element(name))
	}
	rep.Layers["staircase.desc_ns_per_tuple"] = float64(time.Since(start).Nanoseconds()) / joins / float64(v.Len())

	// Tuples inspected per result item, and steps on the per-node
	// fallback, over the scan query set.
	var inspected, results, perNode int64
	for _, q := range scans[:len(scanQueries)] {
		expr := l.exprs[q]
		cv := &countingView{DocView: v}
		val, err := expr.Eval(cv)
		if err != nil {
			return err
		}
		inspected += cv.n
		if ns, ok := val.(xpath.NodeSet); ok {
			results += int64(len(ns))
		} else {
			results++
		}
		perNode += int64(strings.Count(expr.Explain(), "per-node"))
	}
	rep.Layers["xpath.tuples_per_result"] = float64(inspected) / float64(results)
	rep.Layers["xpath.pernode_steps"] = float64(perNode)

	// The fast path of AcquireRead: no commit since the last one.
	const acquires = 20000
	start = time.Now()
	for i := 0; i < acquires; i++ {
		l.mgr.AcquireRead().Close()
	}
	rep.Layers["tx.acquire_fast_ns"] = float64(time.Since(start).Nanoseconds()) / acquires

	// Allocation per op of the library path alone.
	fetches := make([]*mxq.Prepared, len(fetchSet))
	for i, q := range fetchSet {
		var err error
		if fetches[i], err = l.doc.Prepare(q); err != nil {
			return err
		}
	}
	var err error
	rep.Layers["mxq.alloc_kb_per_op"], err = allocKB(len(fetches), func() error {
		for _, prep := range fetches {
			if _, err := prep.Run(nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	const commits = 50
	batch := newUpdGen(l.cfg.Seed, streamSample, l.cfg.SF, true).take(commits)
	rep.Layers["tx.alloc_kb_per_commit"], err = allocKB(commits, func() error {
		for _, u := range batch {
			if _, err := l.commitLib(u, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, u := range batch {
		if err := l.commitRaw(u, 0); err != nil {
			return err
		}
	}
	return nil
}

// walScratch appends the records raw's log holds to two scratch logs:
// one without fsync, for the append cost and the bytes per commit, and
// one with fsync on every commit. The fsync figures are the sandbox's
// file system, not a device's.
func (l *layers) walScratch(rep *traceReport) error {
	var recs [][]wal.Op
	const maxRecs = 2000
	err := l.log.Replay(0, func(r *wal.Record) error {
		if len(recs) < maxRecs {
			recs = append(recs, r.Ops)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.tr.class = "wal"
	appendAll := func(name string, recs [][]wal.Op, nosync bool) (*wal.Log, error) {
		dir := filepath.Join(l.dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		log, err := wal.Open(filepath.Join(dir, "scratch.wal"), wal.Options{NoSync: nosync})
		if err != nil {
			return nil, err
		}
		for _, ops := range recs {
			id := l.tr.begin("wal.append", 0, 0)
			lsn, err := log.Append(ops)
			l.tr.end(id)
			if err != nil {
				log.Close()
				return nil, err
			}
			if !nosync {
				id = l.tr.begin("wal.sync", 0, 0)
				err = log.Sync(lsn)
				l.tr.end(id)
				if err != nil {
					log.Close()
					return nil, err
				}
			}
		}
		return log, nil
	}
	log, err := appendAll("wal-nosync", recs, true)
	if err != nil {
		return err
	}
	bytes, records := log.TailStats()
	log.Close()
	rep.Layers["wal.bytes_per_commit"] = float64(bytes) / float64(records)

	synced := recs[:min(len(recs), 200)]
	if log, err = appendAll("wal-sync", synced, false); err != nil {
		return err
	}
	rep.Layers["wal.syncs_per_commit"] = float64(log.SyncCount()) / float64(len(synced))
	return log.Close()
}

// recoveryStage times ckpt.Recover over lib's directory twice: on the
// image alone, and on the image plus a tail of TailCommits records.
func (l *layers) recoveryStage() error {
	if err := l.checkpoint("ckpt.final"); err != nil {
		return err
	}
	recoverOnce := func(name string) error {
		if err := l.db.Close(); err != nil {
			return err
		}
		l.tr.class = "recovery"
		root := l.tr.begin(name, 0, 0)
		id := l.tr.begin("wal.open", root, 0)
		log, err := wal.Open(filepath.Join(l.libDir(), docName+".wal"), wal.Options{NoSync: true})
		l.tr.end(id)
		if err != nil {
			return err
		}
		id = l.tr.begin("ckpt."+name, root, 0)
		_, _, err = ckpt.Recover(l.libDir(), docName, log, nil)
		l.tr.end(id)
		l.tr.end(root)
		log.Close()
		if err != nil {
			return err
		}
		// Reopen lib (recovering again, untimed) for what follows.
		if err := l.openLib(); err != nil {
			return err
		}
		l.doc, err = l.db.OpenDocument(docName)
		return err
	}
	if err := recoverOnce("recover.image"); err != nil {
		return err
	}
	l.tr.on = false
	for _, u := range newUpdGen(l.cfg.Seed, streamTail, l.cfg.SF, true).take(l.cfg.TailCommits) {
		if _, err := l.commitLib(u, 0, 0); err != nil {
			return err
		}
	}
	l.tr.on = true
	return recoverOnce("recover.tail")
}

// wireProbe spawns a server for the two figures that need one: the Ping
// round trip, and the wire latency of the workload's primary op, from
// which the in-process op time is subtracted to leave the residual
// (admission, session, sockets).
func wireProbe(ctx context.Context, cfg config, workload, bin, scratch, xml string, scans, fetchSet, points []string) (ping, p50 float64, err error) {
	dir, err := os.MkdirTemp(scratch, workload+"-probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	srv, err := startMxqd(bin, dir, cfg.serverFlags(cfg.CkptRecords))
	if err != nil {
		return 0, 0, err
	}
	defer srv.kill()
	c, err := srv.dial(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	if err := c.Load(ctx, docName, xml); err != nil {
		return 0, 0, err
	}
	timeOps := func(n int, op func(i int) error) (float64, error) {
		lat := make([]float64, 0, n)
		for i := -n / 10; i < n; i++ { // the first tenth again, as warm-up
			start := time.Now()
			if err := op((i + n) % n); err != nil {
				return 0, err
			}
			if i >= 0 {
				lat = append(lat, float64(time.Since(start).Nanoseconds()))
			}
		}
		return percentile(lat, 50), nil
	}
	if ping, err = timeOps(2000, func(int) error { return c.Ping(ctx) }); err != nil {
		return 0, 0, err
	}
	query := func(set []string) func(i int) error {
		return func(i int) error {
			_, err := c.Query(ctx, docName, set[i%len(set)], nil)
			return err
		}
	}
	switch classOf[workload] {
	case classScan:
		p50, err = timeOps(5*len(scanQueries), query(scans))
	case classFetch:
		p50, err = timeOps(30*len(fetchSet), query(fetchSet))
	case classMixed:
		p50, err = timeOps(len(points), query(points))
	default:
		updates := newUpdGen(cfg.Seed, streamUpdates, cfg.SF, false).take(cfg.CkptRecords / 2)
		p50, err = timeOps(len(updates), func(i int) error {
			_, err := c.Update(ctx, docName, updates[i].XU)
			return err
		})
	}
	return ping, p50, err
}

// summarise turns the spans and counters into the per-layer metrics.
func (l *layers) summarise(rep *traceReport, main string, wireP50 float64) {
	spans := l.tr.spans
	meanOf := func(class, name string) float64 { return mean(durations(spans, class, name)) }
	L := rep.Layers

	L["shred.parse_ms"] = meanOf("setup", "shred.parse") / 1e6
	L["core.build_ms"] = meanOf("setup", "core.build") / 1e6
	L["ckpt.full_ms"] = meanOf("ckpt", "ckpt.full") / 1e6
	L["ckpt.full_bytes"] = float64(l.ckptStats[0].CkptBytesWritten)
	L["chunkstore.put_us"] = meanOf("ckpt", "chunkstore.put") / 1e3

	// Prepared-cache misses: the mixed class cycles over more query
	// texts than the others together.
	L["xpath.parse_us"] = meanOf(classMixed, "xpath.parse") / 1e3
	L["xpath.eval_ms"] = meanOf(classScan, "xpath.eval") / 1e6
	L["mxq.materialize_ms"] = (meanOf(classFetch, "mxq.run") - meanOf(classFetch, "xpath.eval") - meanOf(classFetch, "tx.acquire")) / 1e6
	var serNS float64
	for _, d := range durations(spans, classFetch, "serialize.subtree") {
		serNS += d
	}
	L["serialize.mb_per_s"] = float64(l.serBytes[classFetch]) / 1e6 / (serNS / 1e9)
	L["wire.resp_encode_us"] = (meanOf(classFetch, "wire.encode") + meanOf(classFetch, "wire.write_frame")) / 1e3
	L["wire.resp_decode_us"] = (meanOf(classFetch, "wire.read_frame") + meanOf(classFetch, "wire.decode")) / 1e3
	L["wire.resp_bytes"] = mean(l.respBytes[classFetch])
	L["tx.acquire_rebuild_us"] = meanOf(classMixed, "tx.acquire.rebuild") / 1e3

	L["xupdate.parse_us"] = meanOf(classUpdate, "xupdate.parse") / 1e3
	L["xupdate.apply_us"] = meanOf(classUpdate, "xupdate.apply") / 1e3
	L["tx.commit_us"] = meanOf(classUpdate, "tx.commit") / 1e3
	L["wal.append_us"] = meanOf("wal", "wal.append") / 1e3
	L["wal.sync_us"] = meanOf("wal", "wal.sync") / 1e3

	// Incremental checkpoints: every one after the first, the final one
	// before the recovery stage excluded (it covers a partial interval).
	incr := durations(spans, "ckpt", "ckpt.incr")
	L["ckpt.incr_ms"] = mean(incr) / 1e6
	first, last := l.ckptStats[0], l.ckptStats[len(incr)]
	k := float64(len(incr))
	L["ckpt.incr_bytes"] = float64(last.CkptBytesWritten-first.CkptBytesWritten) / k
	L["ckpt.chunks_written"] = float64(last.CkptChunksWritten-first.CkptChunksWritten) / k
	L["ckpt.chunks_reused"] = float64(last.CkptChunksReused-first.CkptChunksReused) / k
	L["ckpt.bytes_per_commit"] = L["ckpt.incr_bytes"] / float64(l.cfg.CkptRecords)

	image := meanOf("recovery", "ckpt.recover.image")
	L["ckpt.replay_us_per_record"] = (meanOf("recovery", "ckpt.recover.tail") - image) / 1e3 / float64(l.cfg.TailCommits)
	L["ckpt.recover_image_ms"] = image / 1e6

	for class, root := range map[string]string{classScan: "op.read", classFetch: "op.read", classUpdate: "op.update", classMixed: "op.read"} {
		rep.Coverage[class] = coverage(spans, class, root)
		rep.Overhead[class] = mean(durations(spans, class, root))/mean(l.untraced[class+"/"+root]) - 1
	}
	// The residual: wire p50 of the workload's primary op minus the p50
	// of the same op run in-process with tracing off.
	inProc := l.untraced[main+"/op.read"]
	if main == classUpdate {
		inProc = l.untraced[main+"/op.update"]
	}
	L["server.residual_us"] = (wireP50 - percentile(inProc, 50)) / 1e3
}
