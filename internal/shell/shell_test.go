package shell

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mxq"
)

func newShell(t *testing.T) (*Shell, *strings.Builder, *strings.Builder) {
	t.Helper()
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	return New(db, &out, &errw), &out, &errw
}

// run executes a line that must succeed.
func run(t *testing.T, sh *Shell, line string) {
	t.Helper()
	if _, err := sh.Execute(line); err != nil {
		t.Fatalf("%q failed: %v", line, err)
	}
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadQueryStats(t *testing.T) {
	sh, out, _ := newShell(t)
	dir := t.TempDir()
	path := writeFile(t, dir, "z.xml", `<zoo><animal>tiger</animal><animal>crane</animal></zoo>`)

	if quit, err := sh.Execute("load zoo " + path); quit || err != nil {
		t.Fatalf("load: quit=%v err=%v", quit, err)
	}
	run(t, sh, "docs")
	if !strings.Contains(out.String(), "zoo") {
		t.Fatalf("docs output: %q", out.String())
	}
	out.Reset()
	run(t, sh, "q zoo count(//animal)")
	if !strings.Contains(out.String(), "[number] 2") {
		t.Fatalf("query output: %q", out.String())
	}
	out.Reset()
	run(t, sh, "q zoo //animal[1]")
	if !strings.Contains(out.String(), "<animal>tiger</animal>") {
		t.Fatalf("element output: %q", out.String())
	}
	out.Reset()
	run(t, sh, "stats zoo")
	if !strings.Contains(out.String(), "live nodes: 5") {
		t.Fatalf("stats output: %q", out.String())
	}
}

func TestUpdateAndXML(t *testing.T) {
	sh, out, _ := newShell(t)
	dir := t.TempDir()
	doc := writeFile(t, dir, "z.xml", `<zoo><animal>tiger</animal></zoo>`)
	xu := writeFile(t, dir, "add.xu",
		`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
		   <xupdate:append select="/zoo"><animal>heron</animal></xupdate:append>
		 </xupdate:modifications>`)
	run(t, sh, "load zoo "+doc)
	out.Reset()
	run(t, sh, "u zoo "+xu)
	if !strings.Contains(out.String(), "ok: 1 commands, 1 nodes affected") {
		t.Fatalf("update output: %q", out.String())
	}
	out.Reset()
	run(t, sh, "xml zoo")
	if !strings.Contains(out.String(), "heron") {
		t.Fatalf("xml output: %q", out.String())
	}
}

func TestExplain(t *testing.T) {
	sh, out, _ := newShell(t)
	dir := t.TempDir()
	doc := writeFile(t, dir, "z.xml",
		`<zoo><cage><animal>tiger</animal></cage><cage><animal>crane</animal></cage></zoo>`)
	run(t, sh, "load zoo "+doc)
	out.Reset()
	run(t, sh, "explain zoo //cage//animal")
	got := out.String()
	for _, want := range []string{"descendant::cage", "descendant::animal", "seq (fused //)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("explain output missing %q:\n%s", want, got)
		}
	}
	out.Reset()
	run(t, sh, "explain zoo //animal[last()]")
	if !strings.Contains(out.String(), "per-node") {
		t.Fatalf("explain output missing the per-node numbering step: %q", out.String())
	}
}

// TestCommandFailures is the table test for the failure contract: every
// failing command must return a non-nil error (the driver's exit
// status) and print one "error:" line to the error writer, not stdout.
func TestCommandFailures(t *testing.T) {
	dir := t.TempDir()
	doc := writeFile(t, dir, "z.xml", `<z/>`)
	cases := []struct {
		name    string
		line    string
		wantErr string // substring of the error / stderr line
	}{
		{"unknown command", "frobnicate", "unknown command"},
		{"load usage", "load onlyname", "usage:"},
		{"load missing file", "load x /nonexistent/file.xml", "no such file"},
		{"query unknown doc", "q ghost //x", `no document "ghost"`},
		{"query parse error", "q z //[bad", "xpath"},
		{"explain parse error", "explain z //[bad", "xpath"},
		{"update missing file", "u z /nonexistent/mods.xu", "no such file"},
		{"checkpoint without dir", "checkpoint z", "error"},
		{"stats unknown doc", "stats ghost", `no document "ghost"`},
		{"xml unknown doc", "xml ghost", `no document "ghost"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh, out, errw := newShell(t)
			run(t, sh, "load z "+doc)
			out.Reset()
			quit, err := sh.Execute(tc.line)
			if quit {
				t.Fatal("failed command quit the shell")
			}
			if err == nil {
				t.Fatalf("%q returned nil error", tc.line)
			}
			if !strings.Contains(err.Error(), tc.wantErr) && !strings.Contains(errw.String(), tc.wantErr) {
				t.Fatalf("error %q / stderr %q missing %q", err, errw.String(), tc.wantErr)
			}
			if !strings.HasPrefix(errw.String(), "error: ") {
				t.Fatalf("stderr = %q, want an error: line", errw.String())
			}
			if strings.Contains(out.String(), "error:") {
				t.Fatalf("error leaked to stdout: %q", out.String())
			}
			// The shell keeps working after a failure.
			out.Reset()
			run(t, sh, "q z count(/z)")
			if !strings.Contains(out.String(), "[number] 1") {
				t.Fatalf("query after failure: %q", out.String())
			}
		})
	}
}

// TestErrorWriterDefaultsToOut keeps the old single-writer behavior for
// callers passing nil.
func TestErrorWriterDefaultsToOut(t *testing.T) {
	db, err := mxq.Open(mxq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sh := New(db, &out, nil)
	if _, err := sh.Execute("frobnicate"); err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(out.String(), "error:") {
		t.Fatalf("out = %q, want the error inline", out.String())
	}
}

func TestQuitAndHelp(t *testing.T) {
	sh, out, _ := newShell(t)
	q1, err1 := sh.Execute("quit")
	q2, err2 := sh.Execute("exit")
	if !q1 || !q2 || err1 != nil || err2 != nil {
		t.Fatal("quit/exit did not signal cleanly")
	}
	if quit, err := sh.Execute(""); quit || err != nil {
		t.Fatal("empty line should be a no-op")
	}
	run(t, sh, "help")
	if !strings.Contains(out.String(), "commands:") {
		t.Fatalf("help output: %q", out.String())
	}
}
