package repl

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/core"
	"mxq/internal/wal"
	"mxq/internal/wire"
)

// Sink is the follower-side state a subscription feeds. The root
// package's docSink is the one implementation, over a document's store,
// manager and local WAL. Methods are called from a single goroutine.
type Sink interface {
	// AppliedLSN is where the follower resumes from: the last LSN whose
	// effects are durably applied locally. ok=false means the follower
	// holds no state at all — not even the document's initial image,
	// which the WAL does not contain — so the subscription must open
	// with a bootstrap, never with record replay.
	AppliedLSN() (lsn uint64, ok bool)
	// ChunkStore returns the local store bootstrap chunks land in — the
	// same one the document's checkpoints use, so checkpointed chunks
	// count as "already have" when the follower diffs the primary's
	// manifest against it and requests only what is missing. A
	// re-bootstrap after a crash-restart then transfers O(churn), not
	// the whole document. A bootstrap calls it once.
	ChunkStore() chunkstore.Store
	// BootstrapManifest replaces the follower's entire state from the
	// manifest of an image pinned at lsn, whose chunks are all present in
	// cs — the store ChunkStore returned for this bootstrap — by the time
	// it is called. After it returns, AppliedLSN must report lsn.
	BootstrapManifest(m *core.ChunkManifest, lsn uint64, cs chunkstore.Store) error
	// Apply applies a record batch in order and makes it durable,
	// returning the LSN to ack (normally the batch's last). An error
	// ends the subscription — a follower that cannot apply must not ack.
	Apply(recs []*wal.Record) (uint64, error)
}

// Follower maintains one document's subscription to a primary:
// connect, negotiate replication, subscribe past the sink's applied
// LSN, bootstrap from a pinned image when told to, apply record
// batches and ack them — reconnecting with backoff until stopped. The
// subscription is self-healing: every reconnect renegotiates from the
// sink's current applied LSN, so a crash on either side (or a prune
// that outran the fence while disconnected) degrades to a bootstrap,
// never to divergence.
type Follower struct {
	Addr string
	Doc  string
	Sink Sink
}

// Run services the subscription until stop closes. Connection errors
// are logged to stderr and retried with backoff (100ms doubling to 3s,
// reset whenever a connection made progress); only a nil from stop ends
// it.
func (f *Follower) Run(stop <-chan struct{}) {
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-stop:
			return
		default:
		}
		progressed, err := f.runOnce(stop)
		select {
		case <-stop:
			return
		default:
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mxq: repl %s: subscription ended: %v\n", f.Doc, err)
		}
		if progressed {
			backoff = 100 * time.Millisecond
		}
		select {
		case <-stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 3*time.Second {
			backoff = 3 * time.Second
		}
	}
}

// runOnce runs a single connection's lifetime. progressed reports
// whether anything was bootstrapped or applied (it resets the backoff).
func (f *Follower) runOnce(stop <-chan struct{}) (progressed bool, err error) {
	conn, err := net.DialTimeout("tcp", f.Addr, 5*time.Second)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	// stop kills the connection out from under every blocking read; the
	// watcher is reaped on return so it cannot leak across reconnects.
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-stop:
			conn.Close()
		case <-watcherDone:
		}
	}()

	if err := f.hello(conn); err != nil {
		return false, err
	}
	after, haveState := f.Sink.AppliedLSN()
	if !haveState {
		after = wire.SubscribeNone
	}
	mode, start, err := f.subscribe(conn, after)
	if err != nil {
		return false, err
	}
	switch mode {
	case wire.ModeWAL:
		if !haveState || start != after {
			return false, fmt.Errorf("repl: primary streams from %d, asked for %d", start, after)
		}
	case wire.ModeSnapshotChunked:
		if haveState && start < after {
			// The primary is behind what this follower already applied:
			// it lost history (or we subscribed to the wrong primary).
			// Rewinding silently would un-happen acknowledged commits.
			return false, fmt.Errorf("repl: primary offers snapshot at %d but %d is already applied locally", start, after)
		}
		if err := f.bootstrap(conn, start); err != nil {
			return false, fmt.Errorf("repl: bootstrap: %w", err)
		}
		if got, ok := f.Sink.AppliedLSN(); !ok || got != start {
			return true, fmt.Errorf("repl: bootstrap left applied at %d, image was %d", got, start)
		}
		if err := f.ack(conn, start); err != nil {
			return true, err
		}
		progressed = true
	default:
		return false, fmt.Errorf("repl: unknown subscription mode %d", mode)
	}

	for {
		fr, err := wire.ReadFrame(conn, 0)
		if err != nil {
			return progressed, err
		}
		if fr.Op != wire.OpWALRecords {
			return progressed, fmt.Errorf("repl: unexpected op %d mid-stream", fr.Op)
		}
		recs, err := decodeBatch(fr.Payload)
		if err != nil {
			return progressed, err
		}
		if len(recs) == 0 {
			continue
		}
		acked, err := f.Sink.Apply(recs)
		if err != nil {
			return progressed, fmt.Errorf("repl: applying batch at %d: %w", recs[0].LSN, err)
		}
		progressed = true
		if err := f.ack(conn, acked); err != nil {
			return progressed, err
		}
	}
}

// decodeBatch reverses nextBatch: a WALRecords payload is records in
// their WAL encoding, concatenated.
func decodeBatch(payload []byte) ([]*wal.Record, error) {
	var recs []*wal.Record
	for r := wire.NewPayloadReader(payload); r.Remaining() > 0; {
		rec, err := wal.DecodeRecord(r)
		if err != nil {
			return nil, fmt.Errorf("repl: decoding record batch: %w", err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// decodeChunkBatch reverses encodeChunkBatch: the last flag, 0 or 1,
// then the chunks, each its raw hash and its length-prefixed bytes,
// which share the payload's memory. No byte may follow the last chunk.
func decodeChunkBatch(payload []byte) (last bool, hs []chunkstore.Hash, bodies [][]byte, err error) {
	r := wire.NewPayloadReader(payload)
	flag, _ := r.Byte()
	if flag > 1 {
		r.Fail(fmt.Errorf("last flag %d", flag))
	}
	// A chunk is at least its hash and a length byte.
	n, _ := r.Count(chunkstore.HashSize + 1)
	hs, bodies = make([]chunkstore.Hash, n), make([][]byte, n)
	for i := range hs {
		copy(hs[i][:], r.Next(chunkstore.HashSize))
		if size, _ := r.Uvarint(); size > uint64(r.Remaining()) {
			r.Fail(fmt.Errorf("chunk %d claims %d bytes, %d left", i, size, r.Remaining()))
		} else {
			bodies[i] = r.Next(int(size))
		}
	}
	if r.Remaining() != 0 {
		r.Fail(fmt.Errorf("%d stray bytes after the batch", r.Remaining()))
	}
	if err := r.Err(); err != nil {
		return false, nil, nil, fmt.Errorf("repl: decoding chunk batch: %w", err)
	}
	return flag == 1, hs, bodies, nil
}

// hello negotiates replication. A primary that answers with anything
// but OK cannot serve this subscription.
func (f *Follower) hello(conn net.Conn) error {
	var p wire.PayloadBuilder
	p.Uvarint(wire.Version).Uvarint(wire.FeatReplication)
	if err := wire.WriteFrame(conn, wire.Frame{ID: 1, Op: wire.OpHello, Payload: p.Bytes()}); err != nil {
		return err
	}
	fr, err := wire.ReadFrame(conn, 0)
	if err != nil {
		return err
	}
	if fr.Op != wire.StatusOK {
		return fmt.Errorf("repl: primary rejected Hello for protocol %d (status %d)", wire.Version, fr.Op)
	}
	r := wire.NewPayloadReader(fr.Payload)
	version, _ := r.Uvarint()
	feats, _ := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if version != wire.Version || feats&wire.FeatReplication == 0 {
		return fmt.Errorf("repl: primary negotiated v%d feats %b: replication unavailable", version, feats)
	}
	return nil
}

func (f *Follower) subscribe(conn net.Conn, after uint64) (mode byte, start uint64, err error) {
	var p wire.PayloadBuilder
	p.String(f.Doc).Uvarint(after)
	if err := wire.WriteFrame(conn, wire.Frame{ID: 2, Op: wire.OpSubscribeWAL, Payload: p.Bytes()}); err != nil {
		return 0, 0, err
	}
	fr, err := wire.ReadFrame(conn, 0)
	if err != nil {
		return 0, 0, err
	}
	if fr.Op != wire.StatusOK {
		return 0, 0, fmt.Errorf("repl: subscribe rejected (status %d): %s", fr.Op, fr.Payload)
	}
	r := wire.NewPayloadReader(fr.Payload)
	mode, _ = r.Byte()
	start, _ = r.Uvarint()
	return mode, start, r.Err()
}

// bootstrap runs the follower side of ModeSnapshotChunked: read the
// manifest, diff it against the local chunk store, request exactly the
// missing chunks, verify and store each as it arrives, then hand the
// complete manifest to the sink.
func (f *Follower) bootstrap(conn net.Conn, start uint64) error {
	fr, err := wire.ReadFrame(conn, 0)
	if err != nil {
		return err
	}
	if fr.Op != wire.OpSnapManifest {
		return fmt.Errorf("repl: op %d where SnapManifest expected", fr.Op)
	}
	var man core.ChunkManifest
	if err := json.Unmarshal(fr.Payload, &man); err != nil {
		return fmt.Errorf("repl: decoding manifest: %w", err)
	}
	all, err := man.ChunkHashes()
	if err != nil {
		return err
	}
	// Unique hashes only — a dedupe-heavy manifest repeats names.
	seen := make(map[chunkstore.Hash]bool, len(all))
	uniq := all[:0]
	for _, h := range all {
		if !seen[h] {
			seen[h] = true
			uniq = append(uniq, h)
		}
	}
	cs := f.Sink.ChunkStore()
	have, err := cs.HasMany(uniq)
	if err != nil {
		return err
	}
	var need []chunkstore.Hash
	pending := make(map[chunkstore.Hash]bool)
	for i, h := range uniq {
		if !have[i] {
			need = append(need, h)
			pending[h] = true
		}
	}
	var p wire.PayloadBuilder
	p.Uvarint(uint64(len(need)))
	for _, h := range need {
		p.Raw(h[:])
	}
	if err := wire.WriteFrame(conn, wire.Frame{Op: wire.OpChunkNeed, Payload: p.Bytes()}); err != nil {
		return err
	}
	for last := false; !last; {
		fr, err := wire.ReadFrame(conn, 0)
		if err != nil {
			return err
		}
		if fr.Op != wire.OpChunkData {
			return fmt.Errorf("repl: op %d inside chunk stream", fr.Op)
		}
		var hs []chunkstore.Hash
		var bodies [][]byte
		last, hs, bodies, err = decodeChunkBatch(fr.Payload)
		if err != nil {
			return err
		}
		for _, h := range hs {
			if !pending[h] {
				return fmt.Errorf("repl: primary shipped chunk %s that was not requested", h)
			}
			delete(pending, h)
		}
		// One batch per frame (one pack file in the local store, not a
		// file per chunk). The store verifies content against the name,
		// so a corrupted transfer fails here rather than landing under a
		// false name.
		if err := chunkstore.PutAll(cs, hs, bodies); err != nil {
			return err
		}
	}
	if len(pending) > 0 {
		return fmt.Errorf("repl: primary left %d requested chunks unshipped", len(pending))
	}
	if err := cs.Sync(); err != nil {
		return err
	}
	return f.Sink.BootstrapManifest(&man, start, cs)
}

func (f *Follower) ack(conn net.Conn, lsn uint64) error {
	var p wire.PayloadBuilder
	p.Uvarint(lsn)
	return wire.WriteFrame(conn, wire.Frame{Op: wire.OpFollowerAck, Payload: p.Bytes()})
}
