package core

import (
	"strings"
	"testing"

	"mxq/internal/chunkstore"
	"mxq/internal/xenc"
)

// warmLive asks for every page's live count and summary and for the live
// index, so that each one is cached.
func warmLive(t *testing.T, s *Store) {
	t.Helper()
	for p := xenc.Pre(0); p < s.Len(); p += s.pageSize {
		s.Live(p)
		s.Summary(p)
	}
	s.SeekUsed(0, 1)
	for i, pg := range s.pages {
		if pg.live.Load() == 0 || pg.sum.Load() == nil {
			t.Fatalf("page chunk %d has no cached count or summary after Live and Summary", i)
		}
	}
	if s.index.cum.Load() == nil {
		t.Fatal("no live index after SeekUsed")
	}
}

// TestLiveCountsFollowWrites: with every page's count and summary and the
// live index cached before it, no mutating entry point leaves one that
// disagrees with the pages (CheckInvariants recomputes every cached one),
// and the check catches a write that skips dirtyPage.
func TestLiveCountsFollowWrites(t *testing.T) {
	s := mustBuild(t, itemsDoc(60), Options{PageSize: 16, FillFactor: 0.75})
	item := func(k int) xenc.Pre { return s.NthChild(s.Root(), k) }
	steps := []struct {
		name   string
		mutate func() error
	}{
		{"SetValue", func() error { return s.SetValue(item(2)+1, "changed") }},
		{"Delete", func() error { return s.Delete(item(5)) }},
		{"insert within a page", func() error {
			_, err := s.InsertBefore(item(7), mustFragment(t, "<x/>"))
			return err
		}},
		{"insert with overflow", func() error {
			_, err := s.AppendChild(item(9), mustFragment(t, strings.Repeat("<y>t</y>", 20)))
			return err
		}},
		{"Delete spanning pages", func() error { return s.Delete(item(9)) }},
	}
	for _, st := range steps {
		warmLive(t, s)
		pages := s.Pages()
		if err := st.mutate(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if st.name == "insert within a page" && s.Pages() != pages || st.name == "insert with overflow" && s.Pages() == pages {
			t.Fatalf("%s: %d pages before, %d after", st.name, pages, s.Pages())
		}
	}

	// A write that skips dirtyPage leaves a count the check reports.
	warmLive(t, s)
	pg := s.pages[s.logToPhys[0]]
	last := len(pg.level) - 1
	if pg.level[last] != xenc.LevelUnused {
		t.Fatal("fixture: the first page is full")
	}
	pg.level[last] = 1
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "caches") {
		t.Fatalf("a write behind dirtyPage's back: CheckInvariants = %v, want the stale count reported", err)
	}
	pg.level[last] = xenc.LevelUnused
}

// TestSnapshotKeepsLiveCount: a page shared with a snapshot is frozen, so
// the base's write goes to a copy, and the snapshot's page keeps the
// count it cached, which still describes it.
func TestSnapshotKeepsLiveCount(t *testing.T) {
	s := mustBuild(t, itemsDoc(60), Options{PageSize: 16, FillFactor: 0.75})
	snap := s.Snapshot()
	target := s.NthChild(s.Root(), 3)
	n, _ := snap.Live(target)
	shared := snap.pages[snap.logToPhys[target>>snap.pageBits]]
	if err := s.Delete(target); err != nil {
		t.Fatal(err)
	}
	if s.pages[s.logToPhys[target>>s.pageBits]] == shared {
		t.Fatal("the base wrote the shared page in place")
	}
	if got := shared.live.Load(); got != int32(n)+1 {
		t.Fatalf("snapshot page caches %d, want %d", got, n+1)
	}
	if got, _ := snap.Live(target); got != n {
		t.Fatalf("snapshot page holds %d used tuples, want %d", got, n)
	}
	if got, _ := s.Live(target); got >= n {
		t.Fatalf("base page holds %d used tuples after the delete, snapshot %d", got, n)
	}
	for _, st := range []*Store{s, snap} {
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValueUpdateKeepsSummaries: the live count and summary read only the
// level, kind and name columns, and the live index only the counts and
// the page order, so a value update — the commit a seeding or writer
// workload repeats — keeps all three, also on the copy a shared page is
// written to; an insert or a delete drops them.
func TestValueUpdateKeepsSummaries(t *testing.T) {
	s := mustBuild(t, itemsDoc(60), Options{PageSize: 16, FillFactor: 0.75})
	warmLive(t, s)
	snap := s.Snapshot()
	text := s.NthChild(s.NthChild(s.Root(), 3), 0)
	if s.Kind(text) != xenc.KindText {
		t.Fatalf("fixture: %v at %d", s.Kind(text), text)
	}
	shared := s.pages[s.PhysPage(text)]
	if err := s.SetValue(text, "changed"); err != nil {
		t.Fatal(err)
	}
	pg := s.pages[s.PhysPage(text)]
	if pg == shared {
		t.Fatal("the base wrote the shared page in place")
	}
	if pg.live.Load() == 0 || pg.sum.Load() != shared.sum.Load() || s.index != snap.index || s.index.cum.Load() == nil {
		t.Fatal("a value update dropped the page's count or summary, or the live index")
	}
	if err := s.Delete(text); err != nil {
		t.Fatal(err)
	}
	if pg.live.Load() != 0 || pg.sum.Load() != nil || s.index == snap.index || s.index.cum.Load() != nil {
		t.Fatal("a delete kept the page's count or summary, or the live index")
	}
	for _, st := range []*Store{s, snap} {
		warmLive(t, st)
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadedPagesStartUnknown: counts are never encoded, so a recovered
// page starts without one and counts its level column when first asked.
func TestLoadedPagesStartUnknown(t *testing.T) {
	s := mustBuild(t, itemsDoc(60), Options{PageSize: 16, FillFactor: 0.75})
	warmLive(t, s)
	cs := chunkstore.NewDir(t.TempDir())
	m, _ := mustSaveChunked(t, s, cs)
	got := mustLoadChunked(t, m, cs)
	for i, pg := range got.pages {
		if c := pg.live.Load(); c != 0 {
			t.Fatalf("loaded page chunk %d caches %d", i, c)
		}
	}
	for p := xenc.Pre(0); p < s.Len(); p += s.pageSize {
		want, wantEnd := s.Live(p)
		if n, end := got.Live(p); n != want || end != wantEnd {
			t.Fatalf("Live(%d) = %d, %d on the loaded store, %d, %d on the saved one", p, n, end, want, wantEnd)
		}
	}
}
