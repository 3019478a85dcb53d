package mxq

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const versionMods = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%s</xupdate:modifications>`

// setBothBooks rewrites both book texts to val in one transaction; t is
// committed or aborted per the commit flag.
func setBothBooks(t *testing.T, doc *Document, val string, commit bool) {
	t.Helper()
	txn := doc.Begin()
	if _, err := txn.Update(fmt.Sprintf(versionMods,
		`<xupdate:update select="/lib/book[1]">`+val+`</xupdate:update>`+
			`<xupdate:update select="/lib/book[2]">`+val+`</xupdate:update>`)); err != nil {
		txn.Abort()
		t.Fatal(err)
	}
	if commit {
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	} else {
		txn.Abort()
	}
}

// TestPreparedAcrossVersions runs one prepared query before, during and
// after commits: each run must observe exactly one committed version —
// the pre-commit run sees the old data, an open (uncommitted)
// transaction stays invisible, the post-commit run sees the new data,
// and repeated runs at an unchanged version return it unchanged (a
// published version cannot go stale or serve a torn state).
func TestPreparedAcrossVersions(t *testing.T) {
	db, err := Open(Options{PageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", `<lib><book>v0</book><book>v0</book></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := doc.Prepare(`/lib/book/text()`)
	if err != nil {
		t.Fatal(err)
	}

	mustSee := func(stage, want string) {
		t.Helper()
		res, err := p.Run(nil)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		got := res.Strings()
		if len(got) != 2 || got[0] != want || got[1] != want {
			t.Fatalf("%s: got %v, want [%s %s]", stage, got, want, want)
		}
	}

	if v := doc.Version(); v != 0 {
		t.Fatalf("fresh document at version %d", v)
	}
	mustSee("before any commit", "v0")

	// An open transaction's writes must be invisible to Prepared.Run.
	txn := doc.Begin()
	if _, err := txn.Update(fmt.Sprintf(versionMods,
		`<xupdate:update select="/lib/book[1]">leak</xupdate:update>`)); err != nil {
		t.Fatal(err)
	}
	mustSee("during open tx", "v0")
	txn.Abort()
	mustSee("after abort", "v0")
	if v := doc.Version(); v != 0 {
		t.Fatalf("abort bumped version to %d", v)
	}

	for i := 1; i <= 3; i++ {
		setBothBooks(t, doc, fmt.Sprintf("v%d", i), true)
		if v := doc.Version(); v != uint64(i) {
			t.Fatalf("after commit %d: version %d", i, v)
		}
		want := fmt.Sprintf("v%d", i)
		mustSee("first run after commit", want)
		mustSee("second run at same version", want) // the same published version
	}
}

// TestPreparedNeverTearsAcrossCommit runs a prepared two-node query from
// many goroutines while a writer commits versions that always keep the
// two books equal. Any result mixing two versions (a torn read straight
// off the base store, or a snapshot caught mid-commit) fails; versions
// observed by each reader must also never go backwards.
func TestPreparedNeverTearsAcrossCommit(t *testing.T) {
	db, err := Open(Options{PageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", `<lib><book>0</book><book>0</book></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := doc.Prepare(`/lib/book/text()`)
	if err != nil {
		t.Fatal(err)
	}

	const commits = 50
	done := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := p.Run(nil)
				if err != nil {
					errs <- err
					return
				}
				got := res.Strings()
				if len(got) != 2 || got[0] != got[1] {
					errs <- fmt.Errorf("torn read: %v", got)
					return
				}
				v, err := strconv.Atoi(strings.TrimSpace(got[0]))
				if err != nil {
					errs <- fmt.Errorf("unexpected value %q", got[0])
					return
				}
				if v < last {
					errs <- fmt.Errorf("version went backwards: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}

	for i := 1; i <= commits; i++ {
		setBothBooks(t, doc, fmt.Sprint(i), true)
		// Interleave aborted transactions: they must stay invisible.
		if i%5 == 0 {
			setBothBooks(t, doc, "aborted", false)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := doc.Version(); v != commits {
		t.Fatalf("version %d after %d commits", v, commits)
	}
}
