// Package server is the mxqd network daemon: a TCP server exposing a
// Database over a length-prefixed binary frame protocol, with
// per-session state (prepared-statement cache, pinned read versions,
// negotiated feature bits), admission control (a weighted semaphore
// over executing requests with a bounded wait queue — overflow is
// answered with a fast ErrOverloaded frame instead of unbounded
// memory), and graceful drain (stop accepting, finish in-flight
// requests under a deadline, so the daemon can then close the database
// and the auto-checkpointer and WAL flush cleanly). Every request finds
// its document with Database.OpenDocument, which attaches it on first
// use; the server keeps no registry of its own.
//
// The frame codec, opcode space and version-negotiation contract live
// in the leaf package internal/wire (shared with the replication
// subsystem and the Go client); sessions use its names directly.
//
// # Wire protocol
//
// Every frame — request and response — is
//
//	uint32  length of everything after this field (big-endian)
//	uint64  request id (echoed verbatim in the response)
//	byte    request: opcode; response: status (0 = OK, else error code)
//	...     payload
//
// Strings inside payloads are uvarint-length-prefixed bytes. A request
// payload starts with the document name (empty for document-independent
// ops), followed by per-opcode fields. Sessions are strictly
// sequential: a client sends one request per connection at a time and
// reads one response; concurrency comes from opening many connections,
// which is what the versioned read path was built for. The one
// exception is a session that issues OpSubscribeWAL: the connection
// leaves request/response mode for good and becomes a replication
// stream (bootstrap and record frames outbound, chunk requests and acks
// inbound).
//
// # Versions
//
// There is one protocol version (wire.Version). OpHello negotiates the
// session's feature bits (see the wire package for the rules); an
// opcode behind a feature bit the session did not negotiate — on a
// session that never said Hello, every such opcode — is answered with
// CodeVersion, not CodeBadRequest, so a client can tell "unknown
// opcode" from "forgot the handshake".
//
// # Session lifetime
//
// A connection is a session. Its prepared-statement cache keys compiled
// plans by (document instance, query text), so repeated queries skip the
// parse; its pinned reads (OpBeginRead … OpEndRead) hold a closeable
// snapshot per document, giving multi-request reads one consistent
// version. Those snapshots are all a session holds of any document, and
// they are released when the connection closes, however it closes. A
// panic while serving a request ends that session alone — the request
// is answered CodeInternal and the connection closed — not the daemon,
// unless it strikes inside a commit's critical section, where it ends
// the process as it always did.
package server
