// Command mxqshell is an interactive shell over an mxqd server: load
// documents, run XPath queries, apply XUpdate modification lists,
// inspect a document's standing. It is a wire client like any other
// (package client); it opens no data directory, so mxqd is the one
// process that owns one.
//
// Usage:
//
//	mxqd -dir data/ &
//	mxqshell [-addr 127.0.0.1:4477] [doc.xml ...]
//
// Each doc-file argument loads at start under its base name. Commands:
//
//	load <name> <file>     load a document (the file is sent whole)
//	docs                   list documents
//	q <name> <xpath>       run a query
//	explain <name> <xpath> print the compiled plan
//	u <name> <file.xu>     apply an XUpdate file (ops, affected nodes, LSN)
//	xml <name>             print the document (compact)
//	stats <name>           role, applied LSN, WAL tail, checkpoint I/O
//	quit
//
// The shell keeps nothing the server cannot serve. There is no
// in-process scratch mode (run mxqd with no -dir, in the background,
// for one) and no checkpoint command (mxqd checkpoints by policy and on
// drain). stats prints what DocStatus carries and not the library's
// storage figures, which have no wire field. xml prints the document
// compact, without indentation. A load or a result larger than one wire
// frame (64 MiB) is refused, as it is for every client; a refused load
// ends the session. After a command whose connection failed, the shell
// closes that session and dials -addr afresh before the next command,
// so a refused load or a restarted mxqd costs one failed command.
//
// Any failed command prints one "error:" line to stderr and makes the
// run exit 1, so scripted use (mxqshell < commands.txt) can rely on the
// status.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"unicode"

	"mxq/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4477", "mxqd address")
	flag.Parse()

	c, err := client.Dial(context.Background(), *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mxqshell:", err)
		os.Exit(1)
	}

	sh := &shell{addr: *addr, c: c, out: os.Stdout, errw: os.Stderr}
	for _, path := range flag.Args() {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if err := sh.loadFile(name, path); err != nil {
			fmt.Fprintln(os.Stderr, "mxqshell:", err)
			sh.close()
			os.Exit(1)
		}
		fmt.Printf("loaded %q from %s\n", name, path)
	}

	failed := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("mxq> ")
	for sc.Scan() {
		quit, err := sh.execute(sc.Text())
		if err != nil {
			failed = true
		}
		if quit {
			break
		}
		fmt.Print("mxq> ")
	}
	sh.close()
	if failed {
		os.Exit(1)
	}
}

// shell interprets command lines as requests to an mxqd session: one
// session until a connection fails, then a fresh one.
type shell struct {
	addr string
	c    *client.Client // nil after a connection failed, until the next command
	out  io.Writer      // command results
	errw io.Writer      // error messages ("error: ..." lines)
}

func (s *shell) close() {
	if s.c != nil {
		s.c.Close()
	}
}

// loadFile sends the XML file at path to the server as document name.
func (s *shell) loadFile(name, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return s.c.Load(context.Background(), name, string(data))
}

// execute interprets one command line. quit reports whether the shell
// should exit; err is non-nil when the command failed (after the error
// message has already been printed to the error writer), so a driver
// can turn any failure into a non-zero exit status. A command that
// failed on its connection (a client error without a server status)
// leaves the session closed, and the next command dials a new one.
func (s *shell) execute(line string) (quit bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return false, nil
	}
	if s.c == nil {
		if s.c, err = client.Dial(context.Background(), s.addr); err != nil {
			return false, s.errorf("%w", err)
		}
	}
	quit, err = s.run(line)
	var ce *client.Error
	if errors.As(err, &ce) && ce.Status == 0 {
		s.c.Close()
		s.c = nil
	}
	return quit, err
}

// run is execute on the current session.
func (s *shell) run(line string) (quit bool, err error) {
	ctx := context.Background()
	fields := strings.Fields(line)
	arg := func(i int) string {
		if i < len(fields) {
			return fields[i]
		}
		return ""
	}
	// rest(i) returns the line after its first i fields, however they
	// are separated, so queries may contain spaces.
	rest := func(i int) string {
		r := line
		for range i {
			r = strings.TrimLeftFunc(r, unicode.IsSpace)
			end := strings.IndexFunc(r, unicode.IsSpace)
			if end < 0 {
				return ""
			}
			r = r[end:]
		}
		return strings.TrimLeftFunc(r, unicode.IsSpace)
	}
	switch cmd := fields[0]; cmd {
	case "quit", "exit":
		return true, nil
	case "help":
		fmt.Fprintln(s.out, "commands: load <name> <file> | docs | q <name> <xpath> | explain <name> <xpath> | u <name> <file.xu> | xml <name> | stats <name> | quit")
	case "docs":
		names, err := s.c.ListDocs(ctx)
		if err != nil {
			return false, s.errorf("%w", err)
		}
		for _, n := range names {
			fmt.Fprintln(s.out, " ", n)
		}
	case "load":
		if arg(1) == "" || arg(2) == "" {
			return false, s.errorf("usage: load <name> <file>")
		}
		if err := s.loadFile(arg(1), arg(2)); err != nil {
			return false, s.errorf("%w", err)
		}
	case "q":
		res, err := s.c.Query(ctx, arg(1), rest(2), nil)
		if err != nil {
			return false, s.errorf("%w", err)
		}
		for i, item := range res {
			if item.XML != "" {
				fmt.Fprintf(s.out, "%4d: %s\n", i+1, item.XML)
			} else {
				fmt.Fprintf(s.out, "%4d: [%s] %s\n", i+1, item.Kind, item.Value)
			}
		}
		fmt.Fprintf(s.out, "(%d items)\n", len(res))
	case "explain":
		// Render the compiled sequence-at-a-time plan without running it.
		plan, err := s.c.Explain(ctx, arg(1), rest(2))
		if err != nil {
			return false, s.errorf("%w", err)
		}
		fmt.Fprint(s.out, plan)
	case "u":
		data, err := os.ReadFile(arg(2))
		if err != nil {
			return false, s.errorf("%w", err)
		}
		res, err := s.c.Update(ctx, arg(1), string(data))
		if err != nil {
			return false, s.errorf("%w", err)
		}
		fmt.Fprintf(s.out, "ok: %d commands, %d nodes affected, lsn %d\n", res.Ops, res.Affected, res.LSN)
	case "xml":
		res, err := s.c.Query(ctx, arg(1), "/*", nil)
		if err != nil {
			return false, s.errorf("%w", err)
		}
		for _, item := range res {
			fmt.Fprintln(s.out, item.XML)
		}
	case "stats":
		st, err := s.c.DocStatus(ctx, arg(1))
		if err != nil {
			return false, s.errorf("%w", err)
		}
		fmt.Fprintf(s.out, "role:        %s\napplied lsn: %d\nwal tail:    lsn %d\nckpt io:     %d bytes in %d chunks written, %d reused\n",
			st.Role, st.AppliedLSN, st.LastLSN, st.CkptBytesWritten, st.CkptChunksWritten, st.CkptChunksReused)
	default:
		return false, s.errorf("unknown command %q (try 'help')", cmd)
	}
	return false, nil
}

// errorf prints one "error: ..." line to the error writer and returns
// the same message as an error for the caller's exit status.
func (s *shell) errorf(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	fmt.Fprintf(s.errw, "error: %v\n", err)
	return err
}
