package mxq

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq/internal/ckpt"
	"mxq/internal/tx"
	"mxq/internal/wal"
)

const libDoc = `<lib><shelf id="s1"><book year="1999">Alpha</book><book year="2003">Beta</book></shelf></lib>`

const modsWrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%BODY%</xupdate:modifications>`

func wrapMods(body string) string { return strings.Replace(modsWrap, "%BODY%", body, 1) }

func TestLoadQueryUpdateRoundTrip(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc.QueryValue(`/lib/shelf/book[1]/text()`); got != "Alpha" {
		t.Fatalf("first book = %q", got)
	}
	if n, _ := doc.QueryValue(`count(//book)`); n != "2" {
		t.Fatalf("books = %s", n)
	}
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book year="2020">Gamma</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	if n, _ := doc.QueryValue(`count(//book)`); n != "3" {
		t.Fatalf("books after update = %s", n)
	}
	xml, err := doc.XML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, `<book year="2020">Gamma</book></shelf>`) {
		t.Fatalf("xml = %s", xml)
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResultMaterialization(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	res, err := doc.Query(`//book`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Kind != "element" || res[0].XML != `<book year="1999">Alpha</book>` {
		t.Fatalf("res = %+v", res)
	}
	res, err = doc.Query(`count(//book)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Kind != "number" || res[0].Value != "2" {
		t.Fatalf("count result = %+v", res)
	}
	res, err = doc.Query(`//book/@year`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Kind != "attribute" || res[0].Value != "1999" {
		t.Fatalf("attr result = %+v", res)
	}
	if got := res.Strings(); got[1] != "2003" {
		t.Fatalf("Strings() = %v", got)
	}
	res, err = doc.Query(`boolean(//book)`)
	if err != nil || res[0].Kind != "boolean" || res[0].Value != "true" {
		t.Fatalf("boolean result = %+v (%v)", res, err)
	}
}

func TestQueryVars(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	res, err := doc.QueryVars(`//book[@year = $y]/text()`, map[string]string{"y": "2003"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Value != "Beta" {
		t.Fatalf("res = %+v", res)
	}
}

func TestDocumentRegistry(t *testing.T) {
	db, _ := Open(Options{})
	if _, err := db.LoadXMLString("a", `<a/>`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("b", `<b/>`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("a", `<a2/>`); err == nil {
		t.Fatal("duplicate name accepted")
	}
	names := db.Documents()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("documents = %v", names)
	}
	if _, err := db.OpenDocument("a"); err != nil {
		t.Fatalf("lookup failed: %v", err)
	}
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("a"); err == nil {
		t.Fatal("double drop succeeded")
	}
	if _, err := db.OpenDocument("a"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("dropped document still present: %v", err)
	}
}

// checkpointedLib leaves a durable "lib" in dir — loaded, updated,
// checkpointed, closed — and returns its XML.
func checkpointedLib(t *testing.T, dir string) string {
	t.Helper()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>on disk</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, _ := doc.XML()
	return want
}

// TestLoadOverUnattachedDocumentFails: a name with a checkpoint image
// exists whether or not it is attached, so loading over it fails — and
// the document on disk recovers unchanged, through an update and a
// restart too (a load that took the name would have had its commits
// replayed over the old image).
func TestLoadOverUnattachedDocumentFails(t *testing.T) {
	dir := t.TempDir()
	want := checkpointedLib(t, dir)
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("lib", `<other><x>1</x></other>`); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("load over an unattached document = %v, want already exists", err)
	}
	doc, err := db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc.XML(); got != want {
		t.Fatalf("document changed by a refused load:\nwant %s\ngot  %s", want, got)
	}
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib"><x>3</x></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	want, _ = doc.XML()
	db.Close()
	db, err = Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err = db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc.XML(); got != want {
		t.Fatalf("restart recovered another document:\nwant %s\ngot  %s", want, got)
	}
}

// TestDocumentsListsUnattached: after Close and Open, Documents lists a
// checkpointed document before anything attaches it — and not the
// directory's LOCK — and Drop removes it — artifacts and all, LOCK
// aside — without attaching it.
func TestDocumentsListsUnattached(t *testing.T) {
	dir := t.TempDir()
	checkpointedLib(t, dir)
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Documents(); !slices.Equal(got, []string{"lib"}) {
		t.Fatalf("Documents over a reopened directory = %v, want [lib]", got)
	}
	if err := db.Drop("lib"); err != nil {
		t.Fatalf("Drop of an unattached document: %v", err)
	}
	if got := db.Documents(); len(got) != 0 {
		t.Fatalf("Documents after Drop = %v", got)
	}
	if _, err := db.OpenDocument("lib"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("OpenDocument after Drop = %v, want ErrNoDocument", err)
	}
	if got := ls(t, dir); !slices.Equal(got, []string{"LOCK"}) {
		t.Fatalf("Drop left %v behind, want only LOCK", got)
	}
}

// TestOpenLocksDir: one Database owns a data directory. A second Open
// of a held Dir — in the same process, too — is refused with
// ErrDirLocked naming the directory; Close releases the lock, also when
// a document's final checkpoint fails, and the directory opens again.
// Without a Dir no LOCK is made.
func TestOpenLocksDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("lib", libDoc); err != nil {
		t.Fatal(err)
	}
	if second, err := Open(Options{Dir: dir, NoSync: true}); !errors.Is(err, ErrDirLocked) || !strings.Contains(err.Error(), dir) {
		if second != nil {
			second.Close()
		}
		t.Fatalf("Open of a held Dir = %v, want ErrDirLocked naming %s", err, dir)
	}
	// Dir becomes a file: the final checkpoint of Close cannot publish.
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err == nil {
		t.Fatal("Close wrote its final checkpoint into a file")
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := os.Stat("LOCK"); !os.IsNotExist(err) {
		t.Fatalf("Open without a Dir made a LOCK (%v)", err)
	}
}

// TestUnreadableDirIsNotAbsence: while Dir cannot be read, a name with
// an image is neither absent nor free — OpenDocument and Drop report the
// read error, not ErrNoDocument, and a load is refused — and once Dir is
// back the document recovers unchanged.
func TestUnreadableDirIsNotAbsence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	want := checkpointedLib(t, dir)
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Root reads any directory whatever its mode, so Dir becomes a file.
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenDocument("lib"); err == nil || errors.Is(err, ErrNoDocument) {
		t.Fatalf("OpenDocument over an unreadable Dir = %v, want the read error", err)
	}
	if err := db.Drop("lib"); err == nil || errors.Is(err, ErrNoDocument) {
		t.Fatalf("Drop over an unreadable Dir = %v, want the read error", err)
	}
	if _, err := db.LoadXMLString("lib", `<other/>`); err == nil {
		t.Fatal("load over an unreadable Dir succeeded")
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	doc, err := db.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc.XML(); got != want {
		t.Fatalf("document changed while Dir was unreadable:\nwant %s\ngot  %s", want, got)
	}
}

func TestBadInputs(t *testing.T) {
	db, _ := Open(Options{})
	if _, err := db.LoadXMLString("bad", `<a><b></a>`); err == nil {
		t.Fatal("malformed XML accepted")
	}
	doc, _ := db.LoadXMLString("lib", libDoc)
	if _, err := doc.Query(`//book[`); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := doc.Update(`not xml`); err == nil {
		t.Fatal("bad update accepted")
	}
	if _, err := doc.Update(wrapMods(`<xupdate:remove select="/lib"/>`)); err == nil {
		t.Fatal("root removal committed")
	}
	// The failed update must not have leaked partial state.
	if n, _ := doc.QueryValue(`count(/lib)`); n != "1" {
		t.Fatal("document damaged by failed update")
	}
}

func TestExplicitTransaction(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	txn := doc.Begin()
	if _, err := txn.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>New</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	res, err := txn.Query(`count(//book)`)
	if err != nil || res[0].Value != "3" {
		t.Fatalf("tx sees %v (%v), want 3", res, err)
	}
	if n, _ := doc.QueryValue(`count(//book)`); n != "2" {
		t.Fatal("uncommitted change visible outside tx")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := doc.QueryValue(`count(//book)`); n != "3" {
		t.Fatal("commit lost")
	}

	txn2 := doc.Begin()
	txn2.Update(wrapMods(`<xupdate:remove select="//book"/>`))
	txn2.Abort()
	if n, _ := doc.QueryValue(`count(//book)`); n != "3" {
		t.Fatal("aborted change applied")
	}
	if err := txn2.Commit(); !errors.Is(err, tx.ErrDone) {
		t.Fatalf("commit after abort = %v", err)
	}
}

// TestUpdateFailureReleasesPages: a modification list whose first
// command takes page locks and whose second fails unwinds through
// Update's Abort, so the pages the first command locked are free for the
// next writer instead of conflicting with it until a restart.
func TestUpdateFailureReleasesPages(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	add := `<xupdate:append select="//shelf"><book>New</book></xupdate:append>`
	if _, err := doc.Update(wrapMods(add + `<xupdate:update select="1+1">x</xupdate:update>`)); err == nil {
		t.Fatal("updating a number committed")
	}
	if _, err := doc.Update(wrapMods(add)); err != nil {
		t.Fatalf("update after the failed one = %v, want its pages unlocked", err)
	}
	if n, _ := doc.QueryValue(`count(//book)`); n != "3" {
		t.Fatalf("books = %s, want 3: only the second update committed", n)
	}
}

func TestStats(t *testing.T) {
	db, _ := Open(Options{PageSize: 16, FillFactor: 0.5})
	doc, _ := db.LoadXMLString("lib", libDoc)
	s := doc.Stats()
	if s.LiveNodes != 6 || s.PageSize != 16 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Fill <= 0 || s.Fill > 0.51 {
		t.Fatalf("fill = %v, want ~0.3", s.Fill)
	}
	doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>C</book></xupdate:append>`))
	s = doc.Stats()
	if s.Commits != 1 {
		t.Fatalf("commits = %d", s.Commits)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint plus three committed updates in the WAL.
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>W</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := doc.XML()
	db.Close()

	// "Crash" and reopen: the store must come back from ckpt + WAL.
	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, err := db2.OpenDocument("lib")
	if err != nil {
		t.Fatalf("document not recovered: %v; dir: %v", err, ls(t, dir))
	}
	got, err := doc2.XML()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered xml differs:\nwant %s\ngot  %s", want, got)
	}
	if err := doc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And it stays writable.
	if _, err := doc2.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>Z</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
}

// TestAttributeValuesSurviveRecovery: attribute values — empty, shared
// by many elements, not ASCII, some from the image and some from WAL
// records — recover from a crash state exactly, and a value shared
// before the crash is not shared storage after it.
func TestAttributeValuesSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true, PageSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("r", `<r><e a="" b="shared"/><e a="shared"/><e a="ünï ☃ 𝄞"/>`+
		strings.Repeat("<f/>", 20)+`<e/><e/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, mods := range []string{
		`<xupdate:append select="/r/e[4]"><xupdate:attribute name="a">shared</xupdate:attribute></xupdate:append>`,
		`<xupdate:append select="/r/e[5]"><xupdate:attribute name="a"></xupdate:attribute></xupdate:append>`,
		`<xupdate:update select="/r/e[3]/@a">ü ☃ 𝄞 again</xupdate:update>`,
	} {
		if _, err := doc.Update(wrapMods(mods)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := doc.XML()
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: crashed, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, err := db2.OpenDocument("r")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("recovered document\n%s\nwant\n%s", got, want)
	}
	if _, err := doc2.Update(wrapMods(`<xupdate:update select="/r/e[2]/@a">changed</xupdate:update>`)); err != nil {
		t.Fatal(err)
	}
	for sel, want := range map[string]string{"/r/e[1]/@b": "shared", "/r/e[2]/@a": "changed", "/r/e[4]/@a": "shared", "/r/e[5]/@a": "", "count(/r/e/@a)": "5"} {
		if got, err := doc2.QueryValue(sel); err != nil || got != want {
			t.Fatalf("%s = %q, %v after updating /r/e[2]/@a, want %q", sel, got, err, want)
		}
	}
	if err := doc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func ls(t *testing.T, dir string) []string {
	t.Helper()
	ents, _ := os.ReadDir(dir)
	var out []string
	for _, e := range ents {
		out = append(out, filepath.Base(e.Name()))
	}
	return out
}

func TestSerializeToIndented(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", `<a><b/></a>`)
	var sb strings.Builder
	if err := doc.SerializeTo(&sb, "  "); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "<a>\n  <b/>\n</a>\n" {
		t.Fatalf("indented = %q", sb.String())
	}
}

func TestPreparedQueries(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	p, err := doc.Prepare(`//book[@year = $y]/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() == "" {
		t.Fatal("empty source")
	}
	for y, want := range map[string]string{"1999": "Alpha", "2003": "Beta"} {
		res, err := p.Run(map[string]string{"y": y})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Value != want {
			t.Fatalf("year %s: %+v", y, res)
		}
	}
	// Prepared queries see committed updates.
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book year="1999">Alpha2</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	res, _ := p.Run(map[string]string{"y": "1999"})
	if len(res) != 2 {
		t.Fatalf("after update: %+v", res)
	}
	if _, err := doc.Prepare(`bad[`); err == nil {
		t.Fatal("bad query prepared")
	}
}

// TestAutoCheckpointPolicy: with Options.CheckpointEvery set, the
// background goroutine must checkpoint once the WAL tail exceeds the
// policy, prune covered segments, and leave a recoverable image — and
// no pointer file beside it; Close must drain it cleanly.
func TestAutoCheckpointPolicy(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		Dir: dir, NoSync: true, WALSegmentBytes: 512,
		CheckpointEvery: CheckpointPolicy{Records: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>auto</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for doc.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-checkpointer never ran; stats = %+v", doc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	want, _ := doc.XML()
	db.Close() // drains the auto goroutine

	if imgs, err := ckpt.Images(dir, "lib"); err != nil || len(imgs) == 0 {
		t.Fatalf("no image after auto checkpoint: %v; dir: %v", err, ls(t, dir))
	}
	if _, err := os.Stat(filepath.Join(dir, "lib.manifest")); !os.IsNotExist(err) {
		t.Fatalf("a checkpoint wrote lib.manifest (%v); dir: %v", err, ls(t, dir))
	}
	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, err := db2.OpenDocument("lib")
	if err != nil {
		t.Fatalf("document not recovered: %v; dir: %v", err, ls(t, dir))
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("recovered state differs:\nwant %s\ngot  %s", want, got)
	}
	if n, _ := doc2.QueryValue(`count(//book[text()="auto"])`); n != "12" {
		t.Fatalf("auto-checkpointed commits lost: %s of 12", n)
	}
}

// TestRacingCheckpointsNeverRegressBaseline: manual Checkpoint calls
// racing the auto goroutine return in any order, but the baseline the
// policy and Stats measure the WAL tail against (the checkpointer's
// last-published LSN) only moves forward — so once the writer is quiet
// Stats().WALRecords never grows, and the last checkpoint leaves it 0.
func TestRacingCheckpointsNeverRegressBaseline(t *testing.T) {
	db, err := Open(Options{
		Dir: t.TempDir(), NoSync: true,
		CheckpointEvery: CheckpointPolicy{Records: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	race := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	checkpoint := func() {
		if err := doc.Checkpoint(); err != nil {
			t.Errorf("racing manual checkpoint: %v", err)
		}
	}
	race(checkpoint)
	race(checkpoint)
	var baseline uint64
	race(func() {
		cur := doc.ckpter.LastLSN()
		if cur < baseline {
			t.Errorf("checkpoint baseline went back from LSN %d to %d", baseline, cur)
		}
		baseline = cur
	})
	for i := 0; i < 40; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>race</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	// The writer is quiet; checkpoints (two manual loops, maybe an auto
	// one still in flight) keep finishing: the tail may only shrink.
	tail := doc.Stats().WALRecords
	for i := 0; i < 200; i++ {
		if now := doc.Stats().WALRecords; now > tail {
			t.Fatalf("WAL tail beyond the last checkpoint grew %d -> %d with no commit in flight", tail, now)
		} else {
			tail = now
		}
	}
	close(stop)
	wg.Wait()
	checkpoint()
	if st := doc.Stats(); st.WALRecords != 0 {
		t.Fatalf("after the last checkpoint the tail is %d records: %+v", st.WALRecords, st)
	}
}

// TestCheckpointOnlineKeepsCommitsDurable: commits landing after an
// explicit checkpoint stay in the (pruned) WAL and survive reopen —
// the root-API view of the lost-commit regression.
func TestCheckpointOnlineKeepsCommitsDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true, WALSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>pre</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Racing-commit shape: land right after the checkpoint published.
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>racing</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	want, _ := doc.XML()
	db.Close()

	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, err := db2.OpenDocument("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("post-checkpoint commit lost:\nwant %s\ngot  %s", want, got)
	}
}

// TestDropSparesDashSiblingDocuments: dropping "a" must not delete the
// durability artifacts of "a-b" (whose name "a" prefixes).
func TestDropSparesDashSiblingDocuments(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	docA, err := db.LoadXMLString("a", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	docAB, err := db.LoadXMLString("a-b", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Document{docA, docAB} {
		if _, err := d.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>sib</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := docAB.XML()
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.OpenDocument("a"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf(`dropped document "a" came back: %v`, err)
	}
	doc2, err := db2.OpenDocument("a-b")
	if err != nil {
		t.Fatalf(`dropping "a" destroyed "a-b": %v; dir: %v`, err, ls(t, dir))
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf(`"a-b" damaged by Drop("a"):\nwant %s\ngot  %s`, want, got)
	}
}

// TestDropReportsWhatItCouldNotRemove: an image name Drop cannot unlink
// (here a non-empty directory, which os.Remove refuses) fails the Drop,
// since the name still exists; the removable artifacts go regardless.
func TestDropReportsWhatItCouldNotRemove(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("a", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stuck := filepath.Join(dir, fmt.Sprintf("a-%016x.ckpt", 1<<40))
	if err := os.MkdirAll(filepath.Join(stuck, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("a"); err == nil {
		t.Fatalf("Drop answered nil over a surviving image; dir: %v", ls(t, dir))
	}
	if names := db.Documents(); !slices.Equal(names, []string{"a"}) {
		t.Fatalf("Documents after a failed Drop = %v, want [a]", names)
	}
	if imgs, _ := ckpt.Images(dir, "a"); len(imgs) != 1 || filepath.Join(dir, imgs[0].File) != stuck {
		t.Fatalf("images left by the failed Drop: %v, want only the planted one", imgs)
	}
	if segs, _ := wal.SegmentPaths(filepath.Join(dir, "a.wal")); len(segs) != 0 {
		t.Fatalf("segments left by the failed Drop: %v", segs)
	}
}

// TestBareFilesAreForeign: only <name>-<lsn>.ckpt, <name>.wal.NNNNNNNN
// and <name>.chunks/ are a document's artifacts. A bare <name>.ckpt or
// <name>.wal, or the <name>.manifest pointer an older build wrote, names
// no document on open and survives another document's checkpoints and
// its own namesake's Drop, as does the directory's LOCK.
func TestBareFilesAreForeign(t *testing.T) {
	dir := t.TempDir()
	bare := []string{"x.ckpt", "x.wal", "x.manifest", "lib.ckpt", "lib.manifest"}
	for _, f := range bare {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("eight or more arbitrary bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Documents(); len(got) != 0 {
		t.Fatalf("bare files claimed as documents: %v", got)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>n</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
		if err := doc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range bare {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("checkpoint retirement touched %s: %v", f, err)
		}
	}
	if err := db.Drop("lib"); err != nil {
		t.Fatal(err)
	}
	bare = append(bare, "LOCK")
	slices.Sort(bare)
	if got := ls(t, dir); !slices.Equal(got, bare) {
		t.Fatalf("after Drop the directory holds %v, want only the foreign files %v", got, bare)
	}
	if _, err := db.OpenDocument("x"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("OpenDocument of a name with only foreign files = %v, want ErrNoDocument", err)
	}
}

// TestAutoCheckpointMeasuresBeyondLastCheckpoint: covered records parked
// in the never-pruned active segment must not re-trigger checkpoints —
// the policy measures the tail beyond the last checkpoint's LSN.
func TestAutoCheckpointMeasuresBeyondLastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Huge segments: nothing ever rotates, so every covered record stays
	// in the active segment and TailStats (total) keeps exceeding the
	// policy forever — only the beyond-checkpoint measure quiesces.
	db, err := Open(Options{
		Dir: dir, NoSync: true,
		CheckpointEvery: CheckpointPolicy{Records: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>q</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for doc.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-checkpointer never ran")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Two more commits: beyond-checkpoint tail is 1-2 records, far under
	// the policy — no new checkpoint may trigger even though the active
	// segment still physically holds all 7 records.
	for i := 0; i < 2; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>r</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce on the loop itself instead of sleeping: autoC buffers one
	// nudge, so the third send below returns only once the loop has
	// finished with the first — and with any nudge the burst above left
	// queued behind the checkpoint that absorbed it. Each of those is
	// dequeued against a covered tail and must run nothing.
	for i := 0; i < 3; i++ {
		select {
		case doc.autoC <- struct{}{}:
		case <-time.After(10 * time.Second):
			t.Fatal("auto-checkpoint loop stopped taking nudges")
		}
	}
	st := doc.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("nudges over a covered tail ran checkpoints: %d, want 1", st.Checkpoints)
	}
	if st.WALRecords >= 4 {
		t.Fatalf("beyond-checkpoint tail = %d records, policy would re-trigger", st.WALRecords)
	}
}
