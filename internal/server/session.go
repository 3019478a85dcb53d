package server

import (
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"mxq"
	"mxq/internal/repl"
	"mxq/internal/wire"
)

// maxPrepared bounds the per-session prepared-statement cache.
const maxPrepared = 256

// maxKept bounds the result buffer a session keeps between requests; an
// idle session does not pin what one huge result grew.
const maxKept = 1 << 20

// prepKey keys compiled plans by document *instance*, not name: a
// follower bootstrap or a CloseDocument replaces the instance a name
// resolves to, so stale plans (bound to the old instance's store) can
// never serve reads against the new one.
type prepKey struct {
	doc *mxq.Document
	q   string
}

// pinnedRead is one BEGIN READ … END window: a closeable snapshot and
// the document instance it was taken of.
type pinnedRead struct {
	doc  *mxq.Document
	snap *mxq.Snapshot
}

// session serves one connection. Requests are handled strictly in
// order; everything the session holds is released in closeSession.
type session struct {
	srv      *Server
	conn     net.Conn
	prepared map[prepKey]*mxq.Prepared
	reads    map[string]*pinnedRead // doc name -> pinned snapshot
	feats    uint64                 // negotiated feature bits; 0 until Hello
	out      wire.PayloadBuilder    // query results, reused across requests
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:      srv,
		conn:     conn,
		prepared: make(map[prepKey]*mxq.Prepared),
		reads:    make(map[string]*pinnedRead),
	}
}

// serve is the session's request loop. A panic while serving a request
// ends this session only: the request is answered CodeInternal (the
// stack goes to Config.Logf, not to the peer) and the connection is
// closed. The defers on the way up have released the request's
// admission units, the document's write mutex and an update's page
// locks (Document.UpdateLSN aborts its transaction), and closeSession
// releases the pinned snapshots. A panic inside a commit's critical
// section is the exception: the store may be half-applied, so it ends
// the process (tx.Tx.Commit) and the next start recovers from the log.
func (s *session) serve() {
	defer s.closeSession()
	var id uint64 // the request in flight
	var op byte
	defer func() {
		if v := recover(); v != nil {
			if logf := s.srv.cfg.Logf; logf != nil {
				logf("server: panic serving opcode %d: %v\n%s", op, v, debug.Stack())
			}
			s.respondErr(id, wire.CodeInternal, "internal error; the server closed this session")
		}
	}()
	for {
		f, err := wire.ReadFrame(s.conn, s.srv.cfg.MaxFrame)
		if err != nil {
			return // disconnect, malformed frame, or drain deadline
		}
		if s.srv.draining() {
			s.respondErr(f.ID, wire.CodeShuttingDown, "server is shutting down")
			return
		}
		id, op = f.ID, f.Op
		if !s.handle(f) {
			return
		}
	}
}

// closeSession releases every held resource: pinned snapshots, then the
// connection. The prepared cache needs no teardown (compiled plans hold
// no store references).
func (s *session) closeSession() {
	for name, pr := range s.reads {
		pr.snap.Close()
		delete(s.reads, name)
	}
	s.conn.Close()
	s.srv.sessionDone(s)
}

// handle dispatches one request; it reports whether the session should
// keep serving.
func (s *session) handle(f wire.Frame) bool {
	switch f.Op {
	case wire.OpPing:
		return s.respond(f.ID, wire.StatusOK, nil)
	case wire.OpListDocs:
		names := s.srv.cfg.DB.Documents()
		var p wire.PayloadBuilder
		p.Uvarint(uint64(len(names)))
		for _, n := range names {
			p.String(n)
		}
		return s.respond(f.ID, wire.StatusOK, p.Bytes())
	case wire.OpLoad:
		return s.handleLoad(f)
	case wire.OpQuery:
		return s.handleQuery(f)
	case wire.OpUpdate:
		return s.handleUpdate(f)
	case wire.OpExplain:
		return s.handleExplain(f)
	case wire.OpBeginRead:
		return s.handleBeginRead(f)
	case wire.OpEndRead:
		return s.handleEndRead(f)
	case wire.OpHello:
		return s.handleHello(f)
	case wire.OpSubscribeWAL:
		return s.handleSubscribeWAL(f)
	case wire.OpDocStatus:
		return s.handleDocStatus(f)
	}
	return s.respondErr(f.ID, wire.CodeBadRequest, fmt.Sprintf("unknown opcode %d", f.Op))
}

// handleHello negotiates the session's feature set. Hello may be sent
// at any point (idempotently renegotiating), but clients send it first.
func (s *session) handleHello(f wire.Frame) bool {
	r := wire.NewPayloadReader(f.Payload)
	clientMax, _ := r.Uvarint()
	clientFeats, _ := r.Uvarint()
	if err := r.Err(); err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	// Replication is always offered: any durable document can be subscribed.
	version, feats, ok := wire.Negotiate(clientMax, wire.FeatReplication, clientFeats)
	if !ok {
		return s.respondErr(f.ID, wire.CodeVersion,
			fmt.Sprintf("client speaks up to protocol %d; this server speaks %d", clientMax, wire.Version))
	}
	s.feats = feats
	var p wire.PayloadBuilder
	p.Uvarint(version).Uvarint(feats)
	return s.respond(f.ID, wire.StatusOK, p.Bytes())
}

// handleSubscribeWAL turns the connection into a replication stream:
// the mode response, then bootstrap and record frames outbound with
// chunk requests and acks inbound, until the follower disconnects. The
// connection never returns to request/response mode — the session ends
// when the stream does.
//
// The subscription deliberately bypasses the admission semaphore: it is
// a long-lived stream, not a request, and parking a semaphore unit for
// its whole lifetime would let a handful of followers starve query
// admission. The WAL reader it drives does bounded work per batch and
// blocks idle between commits.
func (s *session) handleSubscribeWAL(f wire.Frame) bool {
	// CodeVersion, never CodeBadRequest: a session that never said Hello
	// lands here too, and its client can tell "forgot the handshake" from
	// "unknown opcode".
	if s.feats&wire.FeatReplication == 0 {
		s.respondErr(f.ID, wire.CodeVersion, "session did not negotiate the replication feature")
		return true
	}
	r := wire.NewPayloadReader(f.Payload)
	name, _ := r.String()
	after, _ := r.Uvarint()
	if err := r.Err(); err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	doc, err := s.srv.cfg.DB.OpenDocument(name)
	if err != nil {
		s.respondNoDoc(f.ID, name, err)
		return true
	}
	src, err := doc.ReplSource()
	if err != nil {
		s.respondErr(f.ID, wire.CodeQuery, err.Error())
		return true
	}
	logf := s.srv.cfg.Logf
	if err := repl.Serve(s.conn, f.ID, after, src, s.srv.cfg.MaxFrame, logf); err != nil && logf != nil {
		logf("server: replication stream for %q ended: %v", name, err)
	}
	return false
}

// handleDocStatus reports the document's replication standing: the
// server's role, the applied (read-your-writes) watermark and the WAL
// tail. A client uses it to measure follower lag and to pick replicas.
func (s *session) handleDocStatus(f wire.Frame) bool {
	name, err := wire.NewPayloadReader(f.Payload).String()
	if err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	doc, err := s.srv.cfg.DB.OpenDocument(name)
	if err != nil {
		return s.respondNoDoc(f.ID, name, err)
	}
	role := wire.RolePrimary
	if s.srv.cfg.ReadOnly {
		role = wire.RoleFollower
	}
	var p wire.PayloadBuilder
	p.Byte(role).Uvarint(doc.AppliedLSN()).Uvarint(doc.LastLSN())
	// The document's cumulative checkpoint I/O — how much the incremental
	// format is saving.
	st := doc.Stats()
	p.Uvarint(st.CkptBytesWritten).Uvarint(st.CkptChunksWritten).Uvarint(st.CkptChunksReused)
	return s.respond(f.ID, wire.StatusOK, p.Bytes())
}

// admit wraps an execution in the admission semaphore, translating
// rejection into the fast error frames overload control promises.
func (s *session) admit(id uint64, weight int64, run func() bool) bool {
	if err := s.srv.adm.acquire(weight); err != nil {
		if errors.Is(err, ErrOverloaded) {
			return s.respondErr(id, wire.CodeOverloaded, "overloaded")
		}
		return s.respondErr(id, wire.CodeShuttingDown, "server is shutting down")
	}
	defer s.srv.adm.release(weight)
	return run()
}

func (s *session) handleLoad(f wire.Frame) bool {
	r := wire.NewPayloadReader(f.Payload)
	name, _ := r.String()
	xml, _ := r.String()
	if err := r.Err(); err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	if s.srv.cfg.ReadOnly {
		return s.respondErr(f.ID, wire.CodeReadOnly, "server is read-only (follower); load on the primary")
	}
	return s.admit(f.ID, 2, func() bool {
		if _, err := s.srv.cfg.DB.LoadXMLString(name, xml); err != nil {
			return s.respondErr(f.ID, wire.CodeQuery, err.Error())
		}
		return s.respond(f.ID, wire.StatusOK, nil)
	})
}

func (s *session) handleQuery(f wire.Frame) bool {
	r := wire.NewPayloadReader(f.Payload)
	name, _ := r.String()
	query, _ := r.String()
	var vars map[string]string
	// A variable is at least its name's and its value's length bytes.
	switch nvars, _ := r.Count(2); {
	case nvars > 1024:
		r.Fail(fmt.Errorf("bad variable count %d (at most 1024)", nvars))
	case nvars > 0:
		vars = make(map[string]string, nvars)
		for range nvars {
			k, _ := r.String()
			vars[k], _ = r.String()
		}
	}
	// Read-your-writes trailer: a minimum LSN the document must have
	// applied before the query runs, and how long to park waiting for
	// it. Absent means "read whatever is current".
	var minLSN, timeoutMillis uint64
	if r.Remaining() > 0 {
		minLSN, _ = r.Uvarint()
		timeoutMillis, _ = r.Uvarint()
	}
	if err := r.Err(); err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	return s.admit(f.ID, 1, func() bool {
		rywDeadline := time.Now().Add(time.Duration(timeoutMillis) * time.Millisecond)
		if minLSN > 0 {
			// A follower that has not bootstrapped the document yet has
			// nothing to acquire yet; the read-your-writes park covers
			// "document not here yet" the same as "LSN not applied yet".
			if ok, served := s.waitForDoc(f.ID, name, rywDeadline); !ok {
				return served
			}
		}
		doc, run, ok := s.docForRead(f.ID, name)
		if !ok {
			return true
		}
		if minLSN > 0 {
			// Park until the replica catches up to the client's commit.
			// This holds an admission unit while parked — deliberate: a
			// flood of reads against a stalled follower should trip
			// overload control rather than pile up unboundedly behind it.
			if err := doc.WaitApplied(minLSN, time.Until(rywDeadline)); err != nil {
				if errors.Is(err, mxq.ErrStale) {
					return s.respondErr(f.ID, wire.CodeStale,
						fmt.Sprintf("document %q applied LSN %d, read requires %d", name, doc.AppliedLSN(), minLSN))
				}
				return s.respondErr(f.ID, wire.CodeInternal, err.Error())
			}
		}
		prep, err := s.prepare(doc, query)
		if err != nil {
			return s.respondErr(f.ID, wire.CodeQuery, err.Error())
		}
		res, err := run(prep, vars)
		if err != nil {
			return s.respondErr(f.ID, wire.CodeQuery, err.Error())
		}
		payload, err := s.encodeResult(res)
		if err != nil {
			return s.respondErr(f.ID, wire.CodeQuery, err.Error())
		}
		served := s.respond(f.ID, wire.StatusOK, payload)
		if cap(payload) > maxKept {
			s.out = wire.PayloadBuilder{}
		}
		return served
	})
}

func (s *session) handleUpdate(f wire.Frame) bool {
	r := wire.NewPayloadReader(f.Payload)
	name, _ := r.String()
	mods, _ := r.String()
	if err := r.Err(); err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	if s.srv.cfg.ReadOnly {
		return s.respondErr(f.ID, wire.CodeReadOnly, "server is read-only (follower); write on the primary")
	}
	return s.admit(f.ID, 2, func() bool {
		doc, err := s.srv.cfg.DB.OpenDocument(name)
		if err != nil {
			return s.respondNoDoc(f.ID, name, err)
		}
		// Serialize writers: transactions are snapshot-isolated, so two
		// racing updates could write-skew, and the engine's optimistic
		// page locks bounce one with tx.ErrConflict; queueing on the
		// name's write mutex makes served updates serial and FIFO.
		wmu, _ := s.srv.writers.LoadOrStore(name, new(sync.Mutex))
		wmu.(*sync.Mutex).Lock()
		defer wmu.(*sync.Mutex).Unlock()
		res, lsn, err := doc.UpdateLSN(mods)
		if err != nil {
			return s.respondErr(f.ID, wire.CodeQuery, err.Error())
		}
		var p wire.PayloadBuilder
		// The trailing field is the commit's WAL LSN, the token a
		// read-your-writes follower read passes as minLSN.
		p.Uvarint(uint64(res.Ops)).Uvarint(uint64(res.Affected)).Uvarint(lsn)
		return s.respond(f.ID, wire.StatusOK, p.Bytes())
	})
}

func (s *session) handleExplain(f wire.Frame) bool {
	r := wire.NewPayloadReader(f.Payload)
	name, _ := r.String()
	query, _ := r.String()
	if err := r.Err(); err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	return s.admit(f.ID, 1, func() bool {
		doc, _, ok := s.docForRead(f.ID, name)
		if !ok {
			return true
		}
		prep, err := s.prepare(doc, query)
		if err != nil {
			return s.respondErr(f.ID, wire.CodeQuery, err.Error())
		}
		var p wire.PayloadBuilder
		p.String(prep.Explain())
		return s.respond(f.ID, wire.StatusOK, p.Bytes())
	})
}

func (s *session) handleBeginRead(f wire.Frame) bool {
	name, err := wire.NewPayloadReader(f.Payload).String()
	if err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	if _, dup := s.reads[name]; dup {
		return s.respondErr(f.ID, wire.CodeBadRequest, fmt.Sprintf("read already pinned on %q", name))
	}
	doc, err := s.srv.cfg.DB.OpenDocument(name)
	if err != nil {
		return s.respondNoDoc(f.ID, name, err)
	}
	snap := doc.Snapshot()
	s.reads[name] = &pinnedRead{doc: doc, snap: snap}
	var p wire.PayloadBuilder
	p.Uvarint(snap.Version())
	return s.respond(f.ID, wire.StatusOK, p.Bytes())
}

func (s *session) handleEndRead(f wire.Frame) bool {
	name, err := wire.NewPayloadReader(f.Payload).String()
	if err != nil {
		return s.respondErr(f.ID, wire.CodeBadRequest, err.Error())
	}
	pr, ok := s.reads[name]
	if !ok {
		return s.respondErr(f.ID, wire.CodeReadNotPinned, fmt.Sprintf("no pinned read on %q", name))
	}
	delete(s.reads, name)
	pr.snap.Close()
	return s.respond(f.ID, wire.StatusOK, nil)
}

// waitForDoc polls until the named document exists (a replica may not
// have bootstrapped it yet), the deadline passes (answer CodeStale —
// the same typed outcome as a read-your-writes timeout) or a
// non-retryable open error appears. ok=true means proceed; otherwise
// the response was sent and served is the keep-serving result.
func (s *session) waitForDoc(id uint64, name string, deadline time.Time) (ok, served bool) {
	for {
		if _, pinned := s.reads[name]; pinned {
			return true, true
		}
		_, err := s.srv.cfg.DB.OpenDocument(name)
		if err == nil {
			return true, true
		}
		if !errors.Is(err, mxq.ErrNoDocument) {
			return false, s.respondNoDoc(id, name, err)
		}
		if !time.Now().Before(deadline) {
			return false, s.respondErr(id, wire.CodeStale, fmt.Sprintf("document %q not yet replicated here", name))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// docForRead resolves the document a read request runs against and how
// a compiled plan runs on it: against the pinned read's version when the
// session holds one, otherwise against whatever is current. ok=false
// means the error response was already sent.
func (s *session) docForRead(id uint64, name string) (doc *mxq.Document, run func(*mxq.Prepared, map[string]string) (mxq.Result, error), ok bool) {
	if pr := s.reads[name]; pr != nil {
		run = func(p *mxq.Prepared, vars map[string]string) (mxq.Result, error) {
			return p.RunSnapshot(pr.snap, vars)
		}
		return pr.doc, run, true
	}
	doc, err := s.srv.cfg.DB.OpenDocument(name)
	if err != nil {
		s.respondNoDoc(id, name, err)
		return nil, nil, false
	}
	return doc, (*mxq.Prepared).Run, true
}

// prepare returns the session's cached compiled plan for (doc, query),
// compiling and caching on miss.
func (s *session) prepare(doc *mxq.Document, query string) (*mxq.Prepared, error) {
	key := prepKey{doc: doc, q: query}
	if p, ok := s.prepared[key]; ok {
		return p, nil
	}
	p, err := doc.Prepare(query)
	if err != nil {
		return nil, err
	}
	if len(s.prepared) >= maxPrepared {
		// Full: drop an arbitrary half. Sessions with a stable statement
		// set never hit this; one cycling through thousands of distinct
		// texts gets cache misses, not unbounded memory.
		n := 0
		for k := range s.prepared {
			delete(s.prepared, k)
			if n++; n >= maxPrepared/2 {
				break
			}
		}
	}
	s.prepared[key] = p
	return p, nil
}

// encodeResult renders a Result into the session's buffer, sized exactly
// first: uvarint count, then per item a kind code, the string value, and
// the serialized XML ("" for non-elements). A result whose frame would
// pass MaxFrame, which the peer would refuse, is refused here.
func (s *session) encodeResult(res mxq.Result) ([]byte, error) {
	n := wire.UvarintLen(uint64(len(res)))
	for _, it := range res {
		n += 1 + wire.UvarintLen(uint64(len(it.Value))) + len(it.Value) +
			wire.UvarintLen(uint64(len(it.XML))) + len(it.XML)
	}
	if limit := s.srv.cfg.MaxFrame; uint64(8+1+n) > uint64(limit) {
		return nil, fmt.Errorf("result of %d items is a %d-byte frame, above the %d-byte frame limit", len(res), 8+1+n, limit)
	}
	s.out.Reset(n)
	s.out.Uvarint(uint64(len(res)))
	for _, it := range res {
		s.out.Byte(wire.KindCode(it.Kind)).String(it.Value).String(it.XML)
	}
	return s.out.Bytes(), nil
}

func (s *session) respond(id uint64, status byte, payload []byte) bool {
	return wire.WriteFrame(s.conn, wire.Frame{ID: id, Op: status, Payload: payload}) == nil
}

func (s *session) respondErr(id uint64, code byte, msg string) bool {
	var p wire.PayloadBuilder
	p.String(msg)
	return s.respond(id, code, p.Bytes())
}

// respondNoDoc distinguishes "unknown document" from other open errors.
func (s *session) respondNoDoc(id uint64, name string, err error) bool {
	if errors.Is(err, mxq.ErrDatabaseClosed) {
		return s.respondErr(id, wire.CodeShuttingDown, "server is shutting down")
	}
	if errors.Is(err, mxq.ErrNoDocument) {
		return s.respondErr(id, wire.CodeNoDocument, fmt.Sprintf("no document %q", name))
	}
	return s.respondErr(id, wire.CodeInternal, err.Error())
}
