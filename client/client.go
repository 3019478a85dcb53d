// Package client is the Go client for mxqd, the mxq network daemon. A
// Client wraps one connection — one server session — and issues
// requests strictly in order (it is safe for concurrent use; calls
// serialize on the connection). Concurrency against the server comes
// from opening many clients: the server's versioned read path is built
// for thousands of concurrent sessions.
//
// Session state lives server-side: the session caches compiled query
// plans per (document, query text), and BeginRead…EndRead pins a
// snapshot so every query between them — across any number of requests
// — observes one committed version.
//
// # Contexts
//
// Every request takes a context. A deadline bounds the whole round
// trip; cancellation takes effect mid-round-trip. Because the protocol
// is strictly sequential, a round trip abandoned halfway leaves the
// connection with an un-read response on it — so a context failure
// closes the connection and poisons the client: every later call fails
// with ErrClosed. That is the defined state; callers that want to keep
// working after a timeout dial a fresh client.
//
// # Versions
//
// There is one protocol version. Dial performs the handshake (Hello),
// offering that version and the client's feature bits; a server that
// answers anything but that version fails the dial with ErrVersion.
//
// # Read-your-writes and replica routing
//
// Updates return (and the client remembers) the commit's WAL LSN. A
// client dialed with WithReadReplica routes queries to a follower and
// stamps them with that LSN: the follower parks the read until it has
// applied the write (bounded by WithRYWTimeout, then ErrStale) — reads
// scale out to replicas without ever silently travelling back in time
// across the caller's own writes. Queries on documents with a pinned
// read window stay on the primary connection the pin lives on.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mxq/internal/wire"
)

// Sentinel errors. Every server-reported failure is a *Error wrapping
// one of these (or none, for errors a program has no business branching
// on); test with errors.Is.
var (
	// ErrOverloaded: the server's admission control rejected the request
	// (concurrency bound and wait queue both full). Back off and retry.
	ErrOverloaded = errors.New("mxqd: overloaded")
	// ErrShuttingDown: the server is draining.
	ErrShuttingDown = errors.New("mxqd: shutting down")
	// ErrNoDocument: the named document does not exist.
	ErrNoDocument = errors.New("mxqd: no such document")
	// ErrStale: a read-your-writes query timed out before the replica
	// applied the required LSN. Retry, raise WithRYWTimeout, or read
	// from the primary.
	ErrStale = errors.New("mxqd: replica stale beyond the read's LSN")
	// ErrReadOnly: a write was sent to a read-only (follower) server.
	ErrReadOnly = errors.New("mxqd: server is read-only")
	// ErrVersion: the server rejected our protocol version or answered
	// with another, or the operation needs a feature the session did not
	// negotiate.
	ErrVersion = errors.New("mxqd: protocol version not supported")
	// ErrClosed: the client was closed, or poisoned by a context
	// cancellation mid-round-trip.
	ErrClosed = errors.New("mxqd: client is closed")
)

// Error is the typed failure for one request: which operation, against
// which document, with the server's status code and message. It wraps
// the matching sentinel (errors.Is sees through it) and, for transport
// failures, the underlying error (including context.Canceled /
// DeadlineExceeded when a context ended the round trip).
type Error struct {
	Op     string // "query", "update", "dial", ...
	Doc    string // document name ("" for document-independent ops)
	Status byte   // wire status code (0 for transport failures)
	Msg    string // server-provided message, or the stage that failed
	Err    error  // wrapped sentinel or transport error, if any
}

// Error names the operation and document, then the server's message, or
// for a failure on this side of the wire (status 0) the stage that
// failed and its cause: `mxqd: load "big": recv: EOF`.
func (e *Error) Error() string {
	s := "mxqd: " + e.Op
	if e.Doc != "" {
		s += " " + fmt.Sprintf("%q", e.Doc)
	}
	switch {
	case e.Msg != "" && e.Status == 0 && e.Err != nil:
		s += ": " + e.Msg + ": " + e.Err.Error()
	case e.Msg != "":
		s += ": " + e.Msg
	case e.Err != nil:
		s += ": " + e.Err.Error()
	default:
		s += fmt.Sprintf(": status %d", e.Status)
	}
	return s
}

func (e *Error) Unwrap() error { return e.Err }

// Item is one query result item.
type Item struct {
	// Kind is "element", "text", "comment", "processing-instruction",
	// "attribute", "document", "number", "string" or "boolean".
	Kind string
	// Value is the item's string value.
	Value string
	// XML is the serialized form for element items ("" otherwise).
	XML string
}

// UpdateResult reports what an update applied.
type UpdateResult struct {
	Ops      int    // commands executed
	Affected int    // nodes the commands were applied to
	LSN      uint64 // the commit's WAL LSN (0 on volatile documents)
}

// DocStatus is a document's replication standing on one server.
type DocStatus struct {
	Role       string // "primary" or "follower"
	AppliedLSN uint64 // read-your-writes watermark
	LastLSN    uint64 // local WAL tail

	// Cumulative checkpoint I/O counters.
	CkptBytesWritten  uint64 // chunk bytes checkpoints have written
	CkptChunksWritten uint64 // chunks written (missing from the store)
	CkptChunksReused  uint64 // chunks already present and reused
}

// Option configures Dial.
type Option func(*options)

type options struct {
	rywTimeout  time.Duration
	replicaAddr string
}

// dialTimeout bounds the TCP connect; the Dial context, if it expires
// sooner, wins.
const dialTimeout = 10 * time.Second

// WithRYWTimeout bounds how long a replica-routed query may park
// waiting for the client's last write to be applied before the server
// answers ErrStale (default 5s).
func WithRYWTimeout(d time.Duration) Option { return func(o *options) { o.rywTimeout = d } }

// WithReadReplica routes queries to a follower at addr (writes and
// session-stateful requests stay on the primary connection). Queries
// carry the client's last commit LSN, so reads never travel back in
// time across the caller's own writes. Dial fails if the replica is
// unreachable.
func WithReadReplica(addr string) Option { return func(o *options) { o.replicaAddr = addr } }

// Client is one mxqd session (plus, optionally, a replica session it
// routes queries to).
type Client struct {
	opts    options
	lastLSN *atomic.Uint64 // highest commit LSN seen; shared with the replica client
	replica *Client        // non-nil when WithReadReplica was given

	mu     sync.Mutex
	conn   net.Conn
	nextID uint64
	closed bool
	pins   map[string]bool // docs with an open BeginRead window (primary only)
}

// Dial connects to an mxqd server and negotiates the protocol.
func Dial(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	o := options{rywTimeout: 5 * time.Second}
	for _, opt := range opts {
		opt(&o)
	}
	c, err := dialOne(ctx, addr, o)
	if err != nil {
		return nil, err
	}
	if o.replicaAddr != "" {
		ro := o
		ro.replicaAddr = ""
		rc, err := dialOne(ctx, o.replicaAddr, ro)
		if err != nil {
			c.Close()
			return nil, err
		}
		rc.lastLSN = c.lastLSN // one write-visibility horizon across both sessions
		c.replica = rc
	}
	return c, nil
}

func dialOne(ctx context.Context, addr string, o options) (*Client, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, &Error{Op: "dial", Err: err}
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Client{
		opts:    o,
		conn:    conn,
		lastLSN: new(atomic.Uint64),
		pins:    make(map[string]bool),
	}
	if err := c.hello(ctx); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// hello performs the handshake; the server must answer with
// wire.Version.
func (c *Client) hello(ctx context.Context) error {
	var p wire.PayloadBuilder
	p.Uvarint(wire.Version).Uvarint(wire.FeatReplication)
	r, err := c.roundTrip(ctx, "hello", "", wire.OpHello, p.Bytes())
	if err != nil {
		return err
	}
	version, err := r.Uvarint()
	if err != nil {
		return &Error{Op: "hello", Err: err}
	}
	if version != wire.Version {
		return &Error{Op: "hello", Err: ErrVersion,
			Msg: fmt.Sprintf("server negotiated version %d, want %d", version, wire.Version)}
	}
	return nil
}

// Close closes the session (and the replica session, if routing); the
// server releases the session's prepared cache and any pinned reads.
func (c *Client) Close() error {
	if c.replica != nil {
		c.replica.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// roundTrip sends one request and reads its response, honouring ctx. A
// context failure mid-round-trip poisons the client (see the package
// doc): the connection has an un-read response in flight and can never
// be re-synchronized.
func (c *Client) roundTrip(ctx context.Context, op, doc string, opcode byte, payload []byte) (*wire.PayloadReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Error{Op: op, Doc: doc, Err: err}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, &Error{Op: op, Doc: doc, Err: ErrClosed}
	}
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	// Cancellation mid-round-trip: yank the deadline so the blocked
	// read/write returns now.
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetDeadline(time.Unix(1, 0))
	})
	defer stop()

	c.nextID++
	id := c.nextID
	fail := func(stage string, err error) (*wire.PayloadReader, error) {
		// The connection is desynchronized; poison the client.
		c.closed = true
		c.conn.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			// The conn deadline only ever comes from ctx; if it fired a
			// tick before ctx's own timer, it is still ctx's deadline.
			err = context.DeadlineExceeded
		}
		return nil, &Error{Op: op, Doc: doc, Msg: stage, Err: err}
	}
	if err := wire.WriteFrame(c.conn, wire.Frame{ID: id, Op: opcode, Payload: payload}); err != nil {
		return fail("send", err)
	}
	// A response longer than wire.MaxFrame is cut off, not allocated for.
	f, err := wire.ReadFrame(c.conn, wire.MaxFrame)
	if err != nil {
		return fail("recv", err)
	}
	if f.ID != id {
		return fail("recv", fmt.Errorf("response id %d for request %d", f.ID, id))
	}
	if f.Op != wire.StatusOK {
		return nil, decodeError(op, doc, f)
	}
	return wire.NewPayloadReader(f.Payload), nil
}

// decodeError maps an error frame to a *Error wrapping the matching
// sentinel.
func decodeError(op, doc string, f wire.Frame) error {
	e := &Error{Op: op, Doc: doc, Status: f.Op}
	if m, err := wire.NewPayloadReader(f.Payload).String(); err == nil {
		e.Msg = m
	}
	switch f.Op {
	case wire.CodeOverloaded:
		e.Err = ErrOverloaded
	case wire.CodeShuttingDown:
		e.Err = ErrShuttingDown
	case wire.CodeNoDocument:
		e.Err = ErrNoDocument
	case wire.CodeStale:
		e.Err = ErrStale
	case wire.CodeReadOnly:
		e.Err = ErrReadOnly
	case wire.CodeVersion:
		e.Err = ErrVersion
	}
	return e
}

// Ping round-trips an empty frame.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, "ping", "", wire.OpPing, nil)
	return err
}

// ListDocs returns the stored document names.
func (c *Client) ListDocs(ctx context.Context) ([]string, error) {
	r, err := c.roundTrip(ctx, "listdocs", "", wire.OpListDocs, nil)
	if err != nil {
		return nil, err
	}
	n, _ := r.Count(1) // a name is at least its length byte
	names := make([]string, n)
	for i := range names {
		names[i], _ = r.String()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return names, nil
}

// Load shreds and stores a document under the given name.
func (c *Client) Load(ctx context.Context, name, xml string) error {
	var p wire.PayloadBuilder
	p.String(name).String(xml)
	_, err := c.roundTrip(ctx, "load", name, wire.OpLoad, p.Bytes())
	return err
}

// Query runs an XPath query against the named document (vars may be
// nil). Inside a BeginRead window for the document it observes the
// pinned version; otherwise the version committed at execution time.
// With a read replica configured, the query runs there (carrying the
// client's last commit LSN for read-your-writes) unless a pinned read
// window holds it on the primary.
func (c *Client) Query(ctx context.Context, doc, query string, vars map[string]string) ([]Item, error) {
	if c.replica != nil && !c.pinned(doc) {
		return c.replica.QueryAt(ctx, doc, query, vars, c.lastLSN.Load())
	}
	return c.queryOn(ctx, doc, query, vars, 0)
}

// QueryAt is Query with an explicit read-your-writes floor: the server
// parks the query until the document has applied minLSN (bounded by
// WithRYWTimeout), failing with ErrStale rather than reading earlier.
// minLSN 0 reads whatever is current.
func (c *Client) QueryAt(ctx context.Context, doc, query string, vars map[string]string, minLSN uint64) ([]Item, error) {
	return c.queryOn(ctx, doc, query, vars, minLSN)
}

func (c *Client) queryOn(ctx context.Context, doc, query string, vars map[string]string, minLSN uint64) ([]Item, error) {
	var p wire.PayloadBuilder
	p.String(doc).String(query)
	p.Uvarint(uint64(len(vars)))
	for k, v := range vars {
		p.String(k).String(v)
	}
	if minLSN > 0 {
		timeout := c.opts.rywTimeout
		if dl, ok := ctx.Deadline(); ok {
			if d := time.Until(dl); d < timeout {
				timeout = d
			}
		}
		if timeout < 0 {
			timeout = 0
		}
		p.Uvarint(minLSN).Uvarint(uint64(timeout / time.Millisecond))
	}
	r, err := c.roundTrip(ctx, "query", doc, wire.OpQuery, p.Bytes())
	if err != nil {
		return nil, err
	}
	n, _ := r.Count(3) // an item is at least a kind byte and two length bytes
	items := make([]Item, n)
	for i := range items {
		kind, _ := r.Byte()
		items[i].Kind = wire.KindName(kind)
		items[i].Value, _ = r.String()
		items[i].XML, _ = r.String()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return items, nil
}

// Update applies an XUpdate modification list in one transaction. The
// result carries the commit's WAL LSN, which the client also remembers
// as its read-your-writes floor for replica-routed queries.
func (c *Client) Update(ctx context.Context, doc, mods string) (UpdateResult, error) {
	var p wire.PayloadBuilder
	p.String(doc).String(mods)
	r, err := c.roundTrip(ctx, "update", doc, wire.OpUpdate, p.Bytes())
	if err != nil {
		return UpdateResult{}, err
	}
	ops, _ := r.Uvarint()
	affected, _ := r.Uvarint()
	lsn, _ := r.Uvarint()
	if err := r.Err(); err != nil {
		return UpdateResult{}, err
	}
	for {
		prev := c.lastLSN.Load()
		if lsn <= prev || c.lastLSN.CompareAndSwap(prev, lsn) {
			break
		}
	}
	return UpdateResult{Ops: int(ops), Affected: int(affected), LSN: lsn}, nil
}

// Explain returns the compiled evaluation plan for a query.
func (c *Client) Explain(ctx context.Context, doc, query string) (string, error) {
	var p wire.PayloadBuilder
	p.String(doc).String(query)
	r, err := c.roundTrip(ctx, "explain", doc, wire.OpExplain, p.Bytes())
	if err != nil {
		return "", err
	}
	return r.String()
}

// BeginRead pins the document's current committed version for this
// session: every Query on it until EndRead observes that version, no
// matter what commits in between. It returns the pinned version. While
// the window is open, queries on the document stay on the primary
// connection (the pin lives in its session).
func (c *Client) BeginRead(ctx context.Context, doc string) (uint64, error) {
	var p wire.PayloadBuilder
	p.String(doc)
	r, err := c.roundTrip(ctx, "beginread", doc, wire.OpBeginRead, p.Bytes())
	if err != nil {
		return 0, err
	}
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.pins[doc] = true
	c.mu.Unlock()
	return v, nil
}

// EndRead releases a pinned read.
func (c *Client) EndRead(ctx context.Context, doc string) error {
	var p wire.PayloadBuilder
	p.String(doc)
	_, err := c.roundTrip(ctx, "endread", doc, wire.OpEndRead, p.Bytes())
	if err == nil {
		c.mu.Lock()
		delete(c.pins, doc)
		c.mu.Unlock()
	}
	return err
}

func (c *Client) pinned(doc string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pins[doc]
}

// DocStatus reports the document's replication standing on the server
// this client (not its replica) is connected to.
func (c *Client) DocStatus(ctx context.Context, doc string) (DocStatus, error) {
	var p wire.PayloadBuilder
	p.String(doc)
	r, err := c.roundTrip(ctx, "docstatus", doc, wire.OpDocStatus, p.Bytes())
	if err != nil {
		return DocStatus{}, err
	}
	st := DocStatus{Role: "primary"}
	if role, _ := r.Byte(); role == wire.RoleFollower {
		st.Role = "follower"
	}
	st.AppliedLSN, _ = r.Uvarint()
	st.LastLSN, _ = r.Uvarint()
	st.CkptBytesWritten, _ = r.Uvarint()
	st.CkptChunksWritten, _ = r.Uvarint()
	st.CkptChunksReused, _ = r.Uvarint()
	if err := r.Err(); err != nil {
		return DocStatus{}, err
	}
	return st, nil
}

// ReplicaStatus is DocStatus against the read replica (ErrVersion if
// the client has none — routing is a dial-time choice).
func (c *Client) ReplicaStatus(ctx context.Context, doc string) (DocStatus, error) {
	if c.replica == nil {
		return DocStatus{}, &Error{Op: "docstatus", Doc: doc, Err: ErrVersion, Msg: "no read replica configured"}
	}
	return c.replica.DocStatus(ctx, doc)
}

// LastLSN reports the highest commit LSN this client has observed from
// its own updates — the floor replica-routed reads are held to.
func (c *Client) LastLSN() uint64 { return c.lastLSN.Load() }
