// Package chunkstore is the content-addressed blob layer under
// incremental checkpoints and chunked replication bootstrap: a chunk is
// an immutable byte string named by its SHA-256, a Store holds chunks
// under those names, and a checkpoint manifest is a list of names. A
// chunk's name *is* its integrity check (Get verifies the digest, so a
// torn or bit-flipped chunk is detected, never silently loaded) and *is*
// its dedupe key (Put of a chunk the store already holds is free, which
// is what turns a checkpoint of a barely-changed document into an
// O(churn) write).
//
// The interface is deliberately small and batched (HasMany) so remote
// backends — an object store, an LRU cache over one — can slot in
// behind the same contract. Writes batch too, but optionally: a store
// that can take a checkpoint's missing chunks at once also implements
// BatchPutter, and a store that does not — or that wraps another
// store's Put — is simply fed one Put per chunk (PutAll is that
// choice). Garbage collection is the store's own (Sweep), because only
// the store knows how its chunks share storage (and how it stores them:
// names and sizes at this interface are of the raw bytes). The in-tree
// backend is Dir: a local directory of immutable pack files of deflated
// chunks, one file per write.
package chunkstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// HashSize is the size of a chunk name in bytes (SHA-256).
const HashSize = sha256.Size

// Hash is a chunk's content address: the SHA-256 of its bytes.
type Hash [HashSize]byte

// Sum names a chunk: the SHA-256 of its contents.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// String renders the hash as lowercase hex (the manifest wire form).
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses the lowercase-hex form produced by Hash.String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*HashSize {
		return h, fmt.Errorf("chunkstore: hash %q has length %d, want %d", s, len(s), 2*HashSize)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("chunkstore: hash %q: %w", s, err)
	}
	copy(h[:], b)
	return h, nil
}

// ErrMissing reports a Get of a chunk the store does not hold (or holds
// only in a torn/corrupt form, which counts as not holding it).
var ErrMissing = errors.New("chunkstore: chunk missing")

// Store holds immutable chunks by content address.
//
// Put is idempotent: storing a chunk the store already holds is a no-op
// (that idempotence is the entire incremental-checkpoint win). Get
// verifies the content against the name and fails — wrapping ErrMissing
// — rather than return corrupt bytes. Writers that need the chunks on
// stable storage before publishing a manifest referencing them call
// Sync after their Puts. A Store is safe for concurrent use: a load
// fetches its chunks from several goroutines at once.
type Store interface {
	// Put stores data under h. h must equal Sum(data).
	Put(h Hash, data []byte) error
	// Get returns the chunk named h, or an error wrapping ErrMissing.
	Get(h Hash) ([]byte, error)
	// HasMany reports whether the store holds each of hs: out[i]
	// reports hs[i]. One round trip for remote backends.
	HasMany(hs []Hash) ([]bool, error)
	// Sweep garbage-collects: every chunk keep reports false for is
	// dropped and its storage reclaimed, every other chunk stays
	// readable. keep may be called while the store holds its own locks
	// and must not call back into it.
	Sweep(keep func(Hash) bool) error
	// Sync forces previously Put chunks to stable storage.
	Sync() error
}

// BatchPutter is the write-side twin of HasMany: a Store that can take
// a whole checkpoint's missing chunks at once and store them together.
// It is optional — PutAll uses it when the store offers it and
// otherwise calls Put per chunk — so a Store that wraps Put (to time,
// throttle or count it) keeps seeing every chunk go through Put.
type BatchPutter interface {
	// PutMany stores datas[i] under hs[i]; every hs[i] must equal
	// Sum(datas[i]). It is meant for chunks HasMany just reported
	// missing, but storing one the store already holds is harmless. On
	// error (the first one met) any subset of the batch may have been
	// stored: chunks are content-addressed, so the stored ones are whole
	// and valid, and GC sweeps those no image comes to reference.
	PutMany(hs []Hash, datas [][]byte) error
}

// PutAll stores datas[i] under hs[i]: as one batch when cs is a
// BatchPutter, else one Put each — the one place that choice is made
// (checkpoints and the follower's bootstrap both write through it).
func PutAll(cs Store, hs []Hash, datas [][]byte) error {
	if bp, ok := cs.(BatchPutter); ok {
		return bp.PutMany(hs, datas)
	}
	if len(hs) != len(datas) {
		return errBatchShape(len(hs), len(datas))
	}
	for i, h := range hs {
		if err := cs.Put(h, datas[i]); err != nil {
			return err
		}
	}
	return nil
}

func errBatchShape(names, chunks int) error {
	return fmt.Errorf("chunkstore: batch of %d names and %d chunks", names, chunks)
}

// mismatchError reports content offered (or found on disk) under a name
// it does not hash to.
type mismatchError struct{ h Hash }

func (e *mismatchError) Error() string {
	return fmt.Sprintf("chunkstore: put of %s with non-matching content", e.h)
}

func errMismatch(h Hash) error { return &mismatchError{h} }
