// Package shell implements the command interpreter behind cmd/mxqshell:
// a line-oriented front end over an mxq.Database (load / query / update /
// stats / checkpoint). It lives in its own package so the command logic
// is unit-testable without a terminal.
package shell

import (
	"fmt"
	"io"
	"os"
	"strings"

	"mxq"
)

// Shell interprets commands against a database.
type Shell struct {
	db   *mxq.Database
	out  io.Writer // command results
	errw io.Writer // error messages ("error: ..." lines)
}

// New returns a shell writing results to out and errors to errw (nil
// means out — errors interleave with results, the old behavior).
func New(db *mxq.Database, out, errw io.Writer) *Shell {
	if errw == nil {
		errw = out
	}
	return &Shell{db: db, out: out, errw: errw}
}

// LoadFile shreds the XML file at path into the database under name.
func (s *Shell) LoadFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = s.db.LoadXML(name, f)
	return err
}

// Execute interprets one command line. quit reports whether the shell
// should exit; err is non-nil when the command failed (after the error
// message has already been printed to the error writer), so a driver
// can turn any failure into a non-zero exit status.
func (s *Shell) Execute(line string) (quit bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return false, nil
	}
	fields := strings.Fields(line)
	cmd := fields[0]
	arg := func(i int) string {
		if i < len(fields) {
			return fields[i]
		}
		return ""
	}
	// rest(i) returns everything after the i-th space-separated token,
	// so queries may contain spaces.
	rest := func(i int) string {
		parts := strings.SplitN(line, " ", i+1)
		if len(parts) > i {
			return parts[i]
		}
		return ""
	}
	switch cmd {
	case "quit", "exit":
		return true, nil
	case "help":
		fmt.Fprintln(s.out, "commands: load <name> <file> | docs | q <name> <xpath> | explain <name> <xpath> | u <name> <file.xu> | xml <name> | stats <name> | checkpoint <name> | quit")
	case "docs":
		for _, n := range s.db.Documents() {
			fmt.Fprintln(s.out, " ", n)
		}
	case "load":
		if arg(1) == "" || arg(2) == "" {
			return false, s.errorf("usage: load <name> <file>")
		}
		if err := s.LoadFile(arg(1), arg(2)); err != nil {
			return false, s.errorf("%v", err)
		}
	case "q":
		doc, err := s.doc(arg(1))
		if err != nil {
			return false, err
		}
		res, err := doc.Query(rest(2))
		if err != nil {
			return false, s.errorf("%v", err)
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
		doc, err := s.doc(arg(1))
		if err != nil {
			return false, err
		}
		prep, err := doc.Prepare(rest(2))
		if err != nil {
			return false, s.errorf("%v", err)
		}
		fmt.Fprint(s.out, prep.Explain())
	case "u":
		doc, err := s.doc(arg(1))
		if err != nil {
			return false, err
		}
		data, err := os.ReadFile(arg(2))
		if err != nil {
			return false, s.errorf("%v", err)
		}
		res, err := doc.Update(string(data))
		if err != nil {
			return false, s.errorf("%v", err)
		}
		fmt.Fprintf(s.out, "ok: %d commands, %d nodes affected\n", res.Ops, res.Affected)
	case "xml":
		doc, err := s.doc(arg(1))
		if err != nil {
			return false, err
		}
		if err := doc.SerializeTo(s.out, "  "); err != nil {
			return false, s.errorf("%v", err)
		}
	case "stats":
		doc, err := s.doc(arg(1))
		if err != nil {
			return false, err
		}
		st := doc.Stats()
		fmt.Fprintf(s.out, "live nodes: %d\ntuples:     %d (%d pages × %d)\nfill:       %.1f%%\ncommits:    %d (aborts %d)\n",
			st.LiveNodes, st.Tuples, st.Pages, st.PageSize, 100*st.Fill, st.Commits, st.Aborts)
		if st.WALBytes > 0 || st.WALRecords > 0 || st.Checkpoints > 0 {
			fmt.Fprintf(s.out, "wal tail:   %d bytes, %d records (checkpoints this session: %d)\n",
				st.WALBytes, st.WALRecords, st.Checkpoints)
		}
		if st.CkptChunksWritten > 0 || st.CkptChunksReused > 0 {
			fmt.Fprintf(s.out, "ckpt io:    %d bytes in %d chunks written, %d reused (dedupe %.1f%%), %d bytes on disk (%.2fx), %d bytes compacted\n",
				st.CkptBytesWritten, st.CkptChunksWritten, st.CkptChunksReused, 100*st.CkptDedupeRatio,
				st.CkptBytesStored, float64(st.CkptBytesStored)/float64(max(st.CkptBytesWritten, 1)), st.CkptBytesCompacted)
		}
	case "checkpoint":
		doc, err := s.doc(arg(1))
		if err != nil {
			return false, err
		}
		if err := doc.Checkpoint(); err != nil {
			return false, s.errorf("%v", err)
		}
		// Online checkpoint: commits kept landing while it streamed.
		fmt.Fprintln(s.out, "ok (online)")
	default:
		return false, s.errorf("unknown command %q (try 'help')", cmd)
	}
	return false, nil
}

func (s *Shell) doc(name string) (*mxq.Document, error) {
	d, err := s.db.OpenDocument(name)
	if err != nil {
		return nil, s.errorf("%v (try 'docs')", err)
	}
	return d, nil
}

// errorf prints one "error: ..." line to the error writer and returns
// the same message as an error for the caller's exit status.
func (s *Shell) errorf(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	fmt.Fprintf(s.errw, "error: %v\n", err)
	return err
}
