package ckpt

import (
	"testing"

	"mxq/internal/vfs"
)

// TestPruneBarrierHoldsSegments: a checkpoint may only prune WAL
// records every retained image covers AND every live follower has
// acked. With the barrier pinned low, segments stay; once it lifts, the
// next checkpoint reclaims them.
func TestPruneBarrierHoldsSegments(t *testing.T) {
	e := newEnv(t, 256) // tiny segments: every few commits seals one
	barrier := uint64(2)
	e.ck = New(vfs.OS, e.dir, "d", e.log, e.m.PinCheckpoint, DefaultChunkStore(e.dir, "d"), func() uint64 { return barrier })

	for i := 0; i < 30; i++ {
		e.commitBook(t, "s1", "b")
	}
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	// Another checkpoint: retention alone would now allow pruning below
	// the previous image's LSN, but the barrier pins records > 2.
	for i := 0; i < 5; i++ {
		e.commitBook(t, "s1", "c")
	}
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	if first := e.log.FirstLSN(); first > barrier+1 {
		t.Fatalf("pruned past the barrier: first live LSN %d, barrier %d", first, barrier)
	}
	if !e.log.CanStream(barrier) {
		t.Fatal("a follower acked at the barrier can no longer stream")
	}

	// Barrier lifts (follower caught up or was dropped): the next
	// checkpoint prunes to its retention horizon.
	barrier = ^uint64(0)
	e.commitBook(t, "s1", "d")
	if _, err := e.ck.Run(); err != nil {
		t.Fatal(err)
	}
	if first := e.log.FirstLSN(); first <= 2 && len(e.log.Segments()) > 2 {
		t.Fatalf("barrier lifted but old segments remain (first live %d)", first)
	}
}
