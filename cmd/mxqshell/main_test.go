package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mxq"
	"mxq/client"
	"mxq/internal/server"
)

// newShell serves cfg.DB (a fresh volatile database when nil) from an
// in-process server on a loopback listener and returns a shell dialed
// to it, with its result and error writers.
func newShell(t *testing.T, cfg server.Config) (*shell, *strings.Builder, *strings.Builder) {
	t.Helper()
	if cfg.DB == nil {
		db, err := mxq.Open(mxq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		cfg.DB = db
	}
	srv := server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := client.Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: the client, then the server, then
	// the database.
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	var out, errw strings.Builder
	sh := &shell{addr: l.Addr().String(), c: c, out: &out, errw: &errw}
	t.Cleanup(sh.close)
	return sh, &out, &errw
}

// run executes a line that must succeed.
func run(t *testing.T, sh *shell, line string) {
	t.Helper()
	if _, err := sh.execute(line); err != nil {
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
	sh, out, _ := newShell(t, server.Config{})
	dir := t.TempDir()
	path := writeFile(t, dir, "z.xml", `<zoo><animal>tiger</animal><animal>crane</animal></zoo>`)

	if quit, err := sh.execute("load zoo " + path); quit || err != nil {
		t.Fatalf("load: quit=%v err=%v", quit, err)
	}
	run(t, sh, "docs")
	if !strings.Contains(out.String(), "zoo") {
		t.Fatalf("docs output: %q", out.String())
	}
	for _, tc := range []struct{ line, want string }{
		{"q zoo count(//animal)", "[number] 2"},
		{"q zoo //animal[1]", "<animal>tiger</animal>"},
		// The query is the line after two fields, however they are
		// separated.
		{"q  zoo count(//animal)", "[number] 2"},
		{"q zoo\t//animal[1]", "<animal>tiger</animal>"},
		{"stats zoo", "role:        primary"},
	} {
		out.Reset()
		run(t, sh, tc.line)
		if !strings.Contains(out.String(), tc.want) {
			t.Fatalf("%q output: %q, want %q", tc.line, out.String(), tc.want)
		}
	}
}

func TestUpdateAndXML(t *testing.T) {
	sh, out, _ := newShell(t, server.Config{})
	dir := t.TempDir()
	doc := writeFile(t, dir, "z.xml", `<zoo><animal>tiger</animal></zoo>`)
	xu := writeFile(t, dir, "add.xu",
		`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
		   <xupdate:append select="/zoo"><animal>heron</animal></xupdate:append>
		 </xupdate:modifications>`)
	run(t, sh, "load zoo "+doc)
	out.Reset()
	run(t, sh, "u zoo "+xu)
	if !strings.Contains(out.String(), "ok: 1 commands, 1 nodes affected, lsn ") {
		t.Fatalf("update output: %q", out.String())
	}
	out.Reset()
	run(t, sh, "xml zoo")
	if got, want := out.String(), "<zoo><animal>tiger</animal><animal>heron</animal></zoo>\n"; got != want {
		t.Fatalf("xml output: %q, want %q", got, want)
	}
}

func TestExplain(t *testing.T) {
	sh, out, _ := newShell(t, server.Config{})
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
	xu := writeFile(t, dir, "mods.xu",
		`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
		   <xupdate:append select="/z"><y/></xupdate:append>
		 </xupdate:modifications>`)
	cases := []struct {
		name     string
		readOnly bool
		line     string
		wantErr  string // substring of the error / stderr line
	}{
		{"unknown command", false, "frobnicate", "unknown command"},
		{"checkpoint is unknown", false, "checkpoint z", `unknown command "checkpoint"`},
		{"load usage", false, "load onlyname", "usage:"},
		{"load missing file", false, "load x /nonexistent/file.xml", "no such file"},
		{"query unknown doc", false, "q ghost //x", `no document "ghost"`},
		{"query parse error", false, "q z //[bad", "xpath"},
		{"explain parse error", false, "explain z //[bad", "xpath"},
		{"update missing file", false, "u z /nonexistent/mods.xu", "no such file"},
		{"update read-only", true, "u z " + xu, "read-only"},
		{"stats unknown doc", false, "stats ghost", `no document "ghost"`},
		{"xml unknown doc", false, "xml ghost", `no document "ghost"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A read-only server takes no load, so its document is
			// loaded into the database it serves.
			var cfg server.Config
			if tc.readOnly {
				db, err := mxq.Open(mxq.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				if _, err := db.LoadXMLString("z", `<z/>`); err != nil {
					t.Fatal(err)
				}
				cfg = server.Config{DB: db, ReadOnly: true}
			}
			sh, out, errw := newShell(t, cfg)
			if !tc.readOnly {
				run(t, sh, "load z "+doc)
			}
			out.Reset()
			quit, err := sh.execute(tc.line)
			if quit {
				t.Fatal("failed command quit the shell")
			}
			if err == nil {
				t.Fatalf("%q returned nil error", tc.line)
			}
			if !strings.Contains(err.Error(), tc.wantErr) && !strings.Contains(errw.String(), tc.wantErr) {
				t.Fatalf("error %q / stderr %q missing %q", err, errw.String(), tc.wantErr)
			}
			if !strings.HasPrefix(errw.String(), "error: ") || strings.Count(errw.String(), "\n") != 1 {
				t.Fatalf("stderr = %q, want one error: line", errw.String())
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

func TestQuitAndHelp(t *testing.T) {
	sh, out, _ := newShell(t, server.Config{})
	q1, err1 := sh.execute("quit")
	q2, err2 := sh.execute("exit")
	if !q1 || !q2 || err1 != nil || err2 != nil {
		t.Fatal("quit/exit did not signal cleanly")
	}
	if quit, err := sh.execute(""); quit || err != nil {
		t.Fatal("empty line should be a no-op")
	}
	run(t, sh, "help")
	if !strings.Contains(out.String(), "commands:") {
		t.Fatalf("help output: %q", out.String())
	}
}

// TestRefusedLoadRedials: a load over the server's frame limit is
// refused by closing the connection. The error line names the cause,
// not only the stage it failed in, and the next command runs on a fresh
// session instead of answering "client is closed".
func TestRefusedLoadRedials(t *testing.T) {
	sh, out, errw := newShell(t, server.Config{MaxFrame: 4096})
	dir := t.TempDir()
	run(t, sh, "load small "+writeFile(t, dir, "small.xml", `<small/>`))
	big := writeFile(t, dir, "big.xml", "<big>"+strings.Repeat("<x>filler</x>", 8<<10/13)+"</big>")
	if _, err := sh.execute("load big " + big); err == nil {
		t.Fatal("an 8 KB load under a 4 KB frame limit succeeded")
	}
	if !regexp.MustCompile(`load "big": (send|recv): \S`).MatchString(errw.String()) {
		t.Fatalf("error line %q does not name the cause", errw.String())
	}
	out.Reset()
	run(t, sh, "docs")
	if !strings.Contains(out.String(), "small") || strings.Contains(out.String(), "big") {
		t.Fatalf("docs after the refused load: %q, want small and not big", out.String())
	}
}
