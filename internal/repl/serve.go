package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"

	"mxq/internal/chunkstore"
	"mxq/internal/core"
	"mxq/internal/wal"
	"mxq/internal/wire"
)

// Batch and chunk shaping for the stream. One WALRecords frame carries
// up to maxBatchRecords records in their WAL encoding, concatenated, and
// goes past maxBatchBytes only to carry a single larger record (which the
// log keeps within one frame); a ChunkData frame carries about snapChunk
// bytes of chunks.
const (
	maxBatchRecords = 256
	maxBatchBytes   = 256 << 10
	snapChunk       = 128 << 10
)

// Source is everything the primary side of a subscription needs from a
// document: its WAL (the stream), a checkpoint pin (the bootstrap
// image), and the document's follower tracker (the prune fence).
type Source struct {
	Name  string
	Log   *wal.Log
	Pin   func() (*core.Store, uint64)
	Track *Tracker
}

// Serve runs the primary side of one replication subscription on conn,
// which the caller has already read the SubscribeWAL request (reqID,
// afterLSN) from. It sends the mode response, bootstraps from a pinned
// checkpoint image (its manifest, then the chunks the follower is
// missing) if the WAL no longer reaches back to after, then streams
// record batches until the connection dies; acks are consumed
// concurrently and update the tracker. Serve returns when the
// subscription ends (any conn error); the caller closes conn.
//
// The fence ordering matters: the follower is registered in the
// tracker at its claimed LSN *before* CanStream is consulted, so a
// checkpoint cannot prune the gap in between. The one remaining race —
// a prune already in flight when Register lands — surfaces as
// wal.ErrPruned mid-setup, ends the subscription, and heals on the
// follower's reconnect (by then the registration is visible, or the
// bootstrap path takes over).
func Serve(conn net.Conn, reqID uint64, after uint64, src Source, maxFrame uint32, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// A follower with no state (SubscribeNone) is fenced at 0 — maximally
	// conservative for the moment between registration and the pin.
	regAt := after
	if after == wire.SubscribeNone {
		regAt = 0
	}
	id := src.Track.Register(regAt)
	defer src.Track.Unregister(id)

	start := after
	mode := wire.ModeWAL
	var img *core.Store
	if after == wire.SubscribeNone || !src.Log.CanStream(after) {
		mode = wire.ModeSnapshotChunked
		img, start = src.Pin()
		// The follower will restart from the image's LSN; move its fence
		// there so the records it still needs (start, tail] stay pinned.
		src.Track.Ack(id, start)
	}
	var p wire.PayloadBuilder
	p.Byte(mode).Uvarint(start)
	if err := wire.WriteFrame(conn, wire.Frame{ID: reqID, Op: wire.StatusOK, Payload: p.Bytes()}); err != nil {
		return err
	}

	// The bootstrap negotiation — send the manifest, read back the list of
	// chunks the follower is missing — must happen while this goroutine
	// is still conn's only reader (the ack receiver below takes over the
	// read side for good).
	var need []chunkstore.Hash
	var resolve func(chunkstore.Hash) ([]byte, bool)
	if mode == wire.ModeSnapshotChunked {
		var man *core.ChunkManifest
		man, resolve = img.BuildManifest()
		data, err := json.Marshal(man)
		if err != nil {
			return fmt.Errorf("repl %s: encoding manifest: %w", src.Name, err)
		}
		if err := wire.WriteFrame(conn, wire.Frame{Op: wire.OpSnapManifest, Payload: data}); err != nil {
			return err
		}
		if need, err = readChunkNeed(conn, maxFrame); err != nil {
			return fmt.Errorf("repl %s: reading chunk wants: %w", src.Name, err)
		}
	}

	// Ack receiver: the only reader of conn from here on. Its exit (conn
	// error, or any frame that is not an ack) ends the subscription.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			fr, err := wire.ReadFrame(conn, maxFrame)
			if err != nil {
				return
			}
			if fr.Op != wire.OpFollowerAck {
				logf("repl %s: follower sent op %d mid-stream", src.Name, fr.Op)
				return
			}
			lsn, err := wire.NewPayloadReader(fr.Payload).Uvarint()
			if err != nil {
				return
			}
			src.Track.Ack(id, lsn)
		}
	}()

	if mode == wire.ModeSnapshotChunked {
		if err := streamChunks(conn, need, resolve); err != nil {
			return fmt.Errorf("repl %s: streaming chunks: %w", src.Name, err)
		}
		logf("repl %s: follower bootstrapped at LSN %d shipping %d missing chunks", src.Name, start, len(need))
	}
	return streamRecords(conn, src.Log, start, done)
}

// readChunkNeed reads the follower's ChunkNeed frame: the chunk hashes
// it is missing and wants shipped.
func readChunkNeed(conn net.Conn, maxFrame uint32) ([]chunkstore.Hash, error) {
	fr, err := wire.ReadFrame(conn, maxFrame)
	if err != nil {
		return nil, err
	}
	if fr.Op != wire.OpChunkNeed {
		return nil, fmt.Errorf("repl: op %d where ChunkNeed expected", fr.Op)
	}
	r := wire.NewPayloadReader(fr.Payload)
	n, _ := r.Count(chunkstore.HashSize)
	need := make([]chunkstore.Hash, n)
	for i := range need {
		copy(need[i][:], r.Next(chunkstore.HashSize))
	}
	if r.Remaining() != 0 {
		r.Fail(fmt.Errorf("repl: ChunkNeed claims %d hashes, %d bytes follow them", n, r.Remaining()))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return need, nil
}

// streamChunks ships the requested chunks in ChunkData frames of about
// snapChunk bytes each; the final frame (sent even for an empty want
// list) carries the last flag.
func streamChunks(conn net.Conn, need []chunkstore.Hash, resolve func(chunkstore.Hash) ([]byte, bool)) error {
	var hs []chunkstore.Hash
	var datas [][]byte
	bytes := 0
	for _, h := range need {
		data, ok := resolve(h)
		if !ok {
			// The follower asked for a hash the manifest does not name —
			// a protocol violation, not a retryable miss.
			return fmt.Errorf("repl: follower requested unknown chunk %s", h)
		}
		hs, datas = append(hs, h), append(datas, data)
		if bytes += len(data); bytes >= snapChunk {
			if err := wire.WriteFrame(conn, wire.Frame{Op: wire.OpChunkData, Payload: encodeChunkBatch(false, hs, datas)}); err != nil {
				return err
			}
			hs, datas, bytes = hs[:0], datas[:0], 0
		}
	}
	return wire.WriteFrame(conn, wire.Frame{Op: wire.OpChunkData, Payload: encodeChunkBatch(true, hs, datas)})
}

// encodeChunkBatch is one ChunkData payload: the last flag (1 on the
// final frame, else 0), the chunk count, then per chunk its raw hash,
// its length and its bytes.
func encodeChunkBatch(last bool, hs []chunkstore.Hash, datas [][]byte) []byte {
	var p wire.PayloadBuilder
	if last {
		p.Byte(1)
	} else {
		p.Byte(0)
	}
	p.Uvarint(uint64(len(hs)))
	for i, h := range hs {
		p.Raw(h[:]).Uvarint(uint64(len(datas[i]))).Raw(datas[i])
	}
	return p.Bytes()
}

// streamRecords ships durable WAL records past `after` in batches,
// parking on the durability watermark when caught up, until the
// connection dies (write error, or the ack receiver exits).
func streamRecords(conn net.Conn, log *wal.Log, after uint64, done <-chan struct{}) error {
	r, err := log.NewReader(after)
	if err != nil {
		return err
	}
	defer r.Close()
	var held []byte
	for {
		payload, err := nextBatch(r, &held)
		if err != nil {
			return err
		}
		if len(payload) == 0 {
			// Caught up. Take the change channel, re-check (a commit may
			// have landed between the drain and the take), then park.
			ch := log.DurableChanged()
			if log.DurableLSN() > r.LSN() {
				continue
			}
			select {
			case <-ch:
				continue
			case <-done:
				return errors.New("repl: subscription closed")
			}
		}
		if err := wire.WriteFrame(conn, wire.Frame{Op: wire.OpWALRecords, Payload: payload}); err != nil {
			return err
		}
		select {
		case <-done:
			return errors.New("repl: subscription closed")
		default:
		}
	}
}

// nextBatch encodes the records the reader yields into one WALRecords
// payload, starting with *held, the encoded record the last batch had no
// room for; empty means caught up. It stops after maxBatchRecords
// records, or before one that would take a non-empty payload past
// maxBatchBytes, which it leaves in *held.
func nextBatch(r *wal.Reader, held *[]byte) ([]byte, error) {
	var p wire.PayloadBuilder
	for n := 0; n < maxBatchRecords; n++ {
		one := *held
		*held = nil
		if one == nil {
			rec, err := r.Next()
			if err != nil || rec == nil {
				return p.Bytes(), err
			}
			var b wire.PayloadBuilder
			rec.Encode(&b)
			one = b.Bytes()
		}
		if n > 0 && len(p.Bytes())+len(one) > maxBatchBytes {
			*held = one
			break
		}
		p.Raw(one)
	}
	return p.Bytes(), nil
}
