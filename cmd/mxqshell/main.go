// Command mxqshell is an interactive shell over the mxq XML database:
// load documents, run XPath queries, apply XUpdate modification lists,
// inspect storage statistics.
//
// Usage:
//
//	mxqshell [-page 1024] [-fill 0.8] [-dir data/]
//	         [-ckpt-records N] [doc.xml ...]
//
// Commands:
//
//	load <name> <file>     shred a document
//	docs                   list documents
//	q <name> <xpath>       run a query
//	u <name> <file.xu>     apply an XUpdate file
//	xml <name>             print the document
//	stats <name>           storage statistics
//	checkpoint <name>      write an online checkpoint (needs -dir)
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mxq"
	"mxq/internal/shell"
)

func main() {
	page := flag.Int("page", 0, "logical page size in tuples (power of two)")
	fill := flag.Float64("fill", 0, "shredder fill factor (0,1]")
	dir := flag.String("dir", "", "durability directory (segmented WAL + checkpoints); locked while the shell runs, so not one a running mxqd serves")
	ckptRecords := flag.Int("ckpt-records", 0, "auto-checkpoint once the WAL tail exceeds this many records (0 = off)")
	flag.Parse()

	db, err := mxq.Open(mxq.Options{
		PageSize: *page, FillFactor: *fill, Dir: *dir,
		CheckpointEvery: mxq.CheckpointPolicy{Records: *ckptRecords},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mxqshell:", err)
		os.Exit(1)
	}

	sh := shell.New(db, os.Stdout, os.Stderr)
	for _, path := range flag.Args() {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if err := sh.LoadFile(name, path); err != nil {
			fmt.Fprintln(os.Stderr, "mxqshell:", err)
			db.Close()
			os.Exit(1)
		}
		fmt.Printf("loaded %q from %s\n", name, path)
	}

	// Any failed command makes the whole run exit non-zero, so scripted
	// use (mxqshell < commands.txt) can rely on the status.
	failed := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("mxq> ")
	for sc.Scan() {
		quit, err := sh.Execute(sc.Text())
		if err != nil {
			failed = true
		}
		if quit {
			break
		}
		fmt.Print("mxq> ")
	}
	db.Close()
	if failed {
		os.Exit(1)
	}
}
