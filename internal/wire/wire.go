// Package wire is the mxqd wire protocol: the frame codec, the opcode
// and status-code space, and the protocol-version negotiation contract.
// It is a leaf package — the server, the replication subsystem and the
// Go client all speak through it, so none of them needs to import the
// others to agree on what bytes mean.
//
// # Frames
//
// Every frame — request and response — is
//
//	uint32  length of everything after this field (big-endian)
//	uint64  request id (echoed verbatim in the response)
//	byte    request: opcode; response: status (0 = OK, else error code)
//	...     payload
//
// Strings inside payloads are uvarint-length-prefixed bytes, and every
// uvarint is in its shortest encoding. A PayloadBuilder writes a
// payload; a PayloadReader reads one, and its first error sticks: a
// decoder reads every field unchecked and asks Err once, so a malformed
// request costs its peer one CodeBadRequest, however many fields are
// wrong. The reader is also the decoder of the WAL record and
// checkpoint chunk encodings, the bytes a process reads back from disk.
//
// # Version negotiation
//
// There is one protocol version, Version. A client opens with OpHello,
// carrying the highest version it speaks plus its feature bits; the
// server answers with Version and the feature intersection, or with
// CodeVersion (a typed rejection, never CodeBadRequest) if the client's
// maximum is below Version. Optional behaviour is gated by feature
// bits, not by the version number: an opcode behind a feature bit is
// answered with CodeVersion on a session that did not negotiate the
// bit — which includes every session that never said Hello. The rules
// that keep the protocol additive:
//
//   - Requests may grow only by trailing fields and responses only by
//     appended fields; a reader ignores what it does not know.
//   - A new opcode is reachable only behind a feature bit negotiated in
//     Hello.
//   - Retired opcode, mode and feature-bit numbers stay unused.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"slices"
)

// Version is the protocol version this build speaks, the only one.
const Version = 3

// Feature bits exchanged in Hello (a bitmask; unknown bits are ignored,
// the negotiated set is the intersection). Bits 1 and 2 are retired.
const (
	// FeatReplication: the peer serves (server) or wants (client) the
	// WAL-shipping opcodes SubscribeWAL / WALRecords / FollowerAck and the
	// bootstrap opcodes SnapManifest / ChunkNeed / ChunkData.
	FeatReplication uint64 = 1 << 0
)

// Request opcodes. 12 is retired.
const (
	OpPing      byte = 1 // -> OK, empty
	OpListDocs  byte = 2 // -> uvarint n, then n names
	OpLoad      byte = 3 // name, xml -> OK
	OpQuery     byte = 4 // name, query, uvarint nvars, (k, v)*, [uvarint minLSN, uvarint timeoutMillis] -> result items
	OpUpdate    byte = 5 // name, xupdate xml -> uvarint ops, uvarint affected, uvarint commitLSN
	OpExplain   byte = 6 // name, query -> plan text
	OpBeginRead byte = 7 // name -> uvarint pinned version
	OpEndRead   byte = 8 // name -> OK

	OpHello        byte = 9  // uvarint maxVersion, uvarint features -> uvarint version, uvarint features
	OpSubscribeWAL byte = 10 // name, uvarint afterLSN -> byte mode, uvarint startLSN; then streaming
	OpWALRecords   byte = 11 // primary->follower stream: one encoded record batch
	OpFollowerAck  byte = 13 // follower->primary stream: uvarint appliedLSN
	OpDocStatus    byte = 14 // name -> byte role, uvarint appliedLSN, uvarint lastLSN, uvarint ckptBytes, uvarint chunksWritten, uvarint chunksReused

	// Bootstrap stream (see ModeSnapshotChunked).
	OpSnapManifest byte = 15 // primary->follower stream: manifest JSON
	OpChunkNeed    byte = 16 // follower->primary stream: uvarint n, then n raw 32-byte hashes the follower is missing
	OpChunkData    byte = 17 // primary->follower stream: byte last, uvarint n, then n x (raw 32-byte hash, uvarint len, bytes)
)

// SubscribeNone is the afterLSN a follower with no local state sends
// in SubscribeWAL: "I have nothing, bootstrap me". An LSN of 0 is NOT
// the same thing — it claims the follower holds the document's initial
// image (which the WAL does not contain) and only the records are
// missing.
const SubscribeNone = ^uint64(0)

// SubscribeWAL response modes. 1 is retired.
const (
	// ModeWAL: the primary still holds every record past the follower's
	// LSN; streaming starts directly with WALRecords frames after
	// startLSN (= the request's afterLSN).
	ModeWAL byte = 0
	// ModeSnapshotChunked: the WAL was pruned past the follower's LSN (or
	// the follower has nothing); the primary bootstraps it by content from
	// an image pinned at startLSN. It sends a SnapManifest frame naming
	// every chunk of the image; the follower answers with one ChunkNeed
	// frame listing the hashes it is missing; the primary ships exactly
	// those in ChunkData frames (last flag on the final one), then
	// WALRecords from startLSN. A follower that bootstraps again and
	// already holds most chunks transfers only the churn.
	ModeSnapshotChunked byte = 2
)

// DocStatus roles.
const (
	RolePrimary  byte = 0
	RoleFollower byte = 1
)

// Response status codes (0 is OK).
const (
	StatusOK          byte = 0
	CodeBadRequest    byte = 1 // malformed frame or unknown opcode
	CodeNoDocument    byte = 2 // unknown document name
	CodeQuery         byte = 3 // compile/evaluation/update error (message in payload)
	CodeOverloaded    byte = 4 // admission control rejected the request
	CodeShuttingDown  byte = 5 // server is draining
	CodeInternal      byte = 6
	CodeReadNotPinned byte = 7 // OpEndRead without a matching OpBeginRead

	CodeStale    byte = 8  // read-your-writes park timed out below the requested LSN
	CodeVersion  byte = 9  // Hello below Version, or an op behind a feature bit the session did not negotiate
	CodeReadOnly byte = 10 // write op on a read-only (follower) server
)

// MaxFrame is the default cap on a frame's length field; a peer
// announcing more is cut off rather than allocated for.
const MaxFrame = 64 << 20

// Frame is one decoded frame: id, op (opcode or status), payload.
type Frame struct {
	ID      uint64
	Op      byte
	Payload []byte
}

// ReadFrame reads one frame, rejecting lengths beyond max (0 means
// MaxFrame).
func ReadFrame(r io.Reader, max uint32) (Frame, error) {
	if max == 0 {
		max = MaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 9 {
		return Frame{}, fmt.Errorf("wire: frame too short (%d)", n)
	}
	if n > max {
		return Frame{}, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, err
	}
	return Frame{
		ID:      binary.BigEndian.Uint64(body[:8]),
		Op:      body[8],
		Payload: body[9:],
	}, nil
}

// WriteFrame writes one frame. The payload is assembled by the caller
// (see PayloadBuilder) and is not copied: header and payload go out as
// net.Buffers, one writev on a TCP connection and one Write each on any
// other writer, which one goroutine at a time must then own.
func WriteFrame(w io.Writer, f Frame) error {
	var hdr [4 + 8 + 1]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(8+1+len(f.Payload)))
	binary.BigEndian.PutUint64(hdr[4:12], f.ID)
	hdr[12] = f.Op
	bufs := net.Buffers{hdr[:], f.Payload}
	_, err := bufs.WriteTo(w)
	return err
}

// PayloadBuilder assembles a payload of uvarints and length-prefixed
// strings.
type PayloadBuilder struct{ b []byte }

// Uvarint appends a uvarint.
func (p *PayloadBuilder) Uvarint(v uint64) *PayloadBuilder {
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

// String appends a length-prefixed string.
func (p *PayloadBuilder) String(s string) *PayloadBuilder {
	return p.Uvarint(uint64(len(s))).RawString(s)
}

// RawString appends s with no length prefix (a block of strings whose
// lengths went ahead of it).
func (p *PayloadBuilder) RawString(s string) *PayloadBuilder {
	p.b = append(p.b, s...)
	return p
}

// Byte appends one raw byte.
func (p *PayloadBuilder) Byte(c byte) *PayloadBuilder {
	p.b = append(p.b, c)
	return p
}

// Raw appends raw bytes with no length prefix (stream chunks).
func (p *PayloadBuilder) Raw(b []byte) *PayloadBuilder {
	p.b = append(p.b, b...)
	return p
}

// Bytes returns the assembled payload.
func (p *PayloadBuilder) Bytes() []byte { return p.b }

// Reset empties the builder for reuse and makes room for n bytes, so a
// payload sized in advance is assembled without growing.
func (p *PayloadBuilder) Reset(n int) { p.b = slices.Grow(p.b[:0], n) }

// UvarintLen returns how many bytes Uvarint appends for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// PayloadReader decodes a payload assembled by PayloadBuilder, and is
// the one decoder for bytes the process did not just write: frames,
// WAL records and checkpoint chunks all read through it. Its error is
// sticky: the first malformed or missing field fails the reader, and
// from then on every getter returns the zero value and that error, Next
// and Rest return nil and Remaining is 0. A decoder can therefore read
// a whole payload unchecked and ask Err once at the end; a count read
// off a failed reader is 0, so nothing is allocated for it. A uvarint
// is accepted only in its shortest encoding, the one Uvarint appends,
// so that what a reader accepts re-encodes to the same bytes.
type PayloadReader struct {
	b   []byte
	err error
}

// NewPayloadReader wraps a payload.
func NewPayloadReader(b []byte) *PayloadReader { return &PayloadReader{b: b} }

// Err returns the error that failed the reader, nil while it has not.
func (p *PayloadReader) Err() error { return p.err }

// Fail fails the reader with err unless it has failed already: a
// decoder refuses a field that is well formed but out of range through
// it, so its caller sees one error either way.
func (p *PayloadReader) Fail(err error) {
	if p.err == nil {
		p.err, p.b = err, nil
	}
}

// Uvarint reads a uvarint in its shortest encoding. A value below 0x80
// is one byte and takes the short path.
func (p *PayloadReader) Uvarint() (uint64, error) {
	if b := p.b; len(b) > 0 && b[0] < 0x80 {
		p.b = b[1:]
		return uint64(b[0]), nil
	}
	return p.uvarint()
}

func (p *PayloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b)
	switch {
	case p.err != nil:
	case n <= 0:
		p.Fail(errors.New("wire: truncated uvarint"))
	case n != UvarintLen(v):
		p.Fail(errors.New("wire: overlong uvarint"))
	default:
		p.b = p.b[n:]
		return v, nil
	}
	return 0, p.err
}

// UvarintMax reads a uvarint and fails the reader if it exceeds max,
// the range of the field it fills, so that what a decoder accepts
// re-encodes to the same bytes.
func (p *PayloadReader) UvarintMax(max uint64) uint64 {
	v, _ := p.Uvarint()
	if v > max {
		p.Fail(fmt.Errorf("wire: uvarint %d exceeds %d", v, max))
		return 0
	}
	return v
}

// Count reads a uvarint element count and refuses one the unread bytes
// cannot hold at min bytes an element, so a count off the wire never
// sizes an allocation the payload could not fill.
func (p *PayloadReader) Count(min int) (uint64, error) {
	n, _ := p.Uvarint()
	if n > uint64(len(p.b)/min) {
		p.Fail(fmt.Errorf("wire: count %d exceeds the %d bytes present", n, len(p.b)))
		return 0, p.err
	}
	return n, p.err
}

// String reads a length-prefixed string.
func (p *PayloadReader) String() (string, error) {
	n, _ := p.Uvarint()
	if n > uint64(len(p.b)) {
		p.Fail(errors.New("wire: truncated string"))
		return "", p.err
	}
	return string(p.Next(int(n))), p.err
}

// Byte reads one raw byte.
func (p *PayloadReader) Byte() (byte, error) {
	if len(p.b) == 0 {
		p.Fail(errors.New("wire: truncated byte"))
		return 0, p.err
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c, nil
}

// Next returns the next n raw bytes, sharing the payload's memory, or
// nil and fails the reader if fewer are left.
func (p *PayloadReader) Next(n int) []byte {
	if uint(n) > uint(len(p.b)) {
		p.Fail(fmt.Errorf("wire: %d bytes wanted, %d left", n, len(p.b)))
		return nil
	}
	b := p.b[:n:n]
	p.b = p.b[n:]
	return b
}

// Rest returns every unread byte (stream chunks).
func (p *PayloadReader) Rest() []byte {
	b := p.b
	p.b = nil
	return b
}

// Remaining reports the unread byte count.
func (p *PayloadReader) Remaining() int { return len(p.b) }

// Result item kind codes on the wire.
const (
	KindElement byte = 1
	KindText    byte = 2
	KindComment byte = 3
	KindPI      byte = 4
	KindAttr    byte = 5
	KindDoc     byte = 6
	KindNumber  byte = 7
	KindString  byte = 8
	KindBoolean byte = 9
)

var kindCodes = map[string]byte{
	"element": KindElement, "text": KindText, "comment": KindComment,
	"processing-instruction": KindPI, "attribute": KindAttr,
	"document": KindDoc, "number": KindNumber, "string": KindString,
	"boolean": KindBoolean,
}

// KindCode maps mxq's item kind string to its wire code (0 if unknown).
func KindCode(name string) byte { return kindCodes[name] }

// KindName maps a wire kind code back to mxq's item kind string.
func KindName(c byte) string {
	for n, k := range kindCodes {
		if k == c {
			return n
		}
	}
	return fmt.Sprintf("kind(%d)", c)
}

// Negotiate computes the server-side Hello outcome for a client
// announcing clientMax/clientFeats against a server offering
// serverFeats. ok=false means the client does not speak Version (answer
// CodeVersion).
func Negotiate(clientMax, serverFeats, clientFeats uint64) (version uint64, feats uint64, ok bool) {
	if clientMax < Version {
		return 0, 0, false
	}
	return Version, serverFeats & clientFeats, true
}
