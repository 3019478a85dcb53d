// Command xmarkbench regenerates the paper's evaluation (Figure 9): it
// runs the twenty XMark queries against the read-only pre/size/level
// schema ('ro') and the updatable pos/size/level schema ('up', built with
// ~20% of each logical page unused, mimicking a database after a series
// of XUpdate operations) and reports per-query times and the overhead of
// the updatable schema.
//
// Usage:
//
//	xmarkbench -sf 0.01,0.1 -fill 0.8 -page 1024 -mintime 200ms
//
// SF 0.01 and 0.1 correspond to the paper's 1.1 MB and 11 MB documents;
// add 1.0 for the 110 MB point if you have the memory and patience.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mxq/internal/core"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
)

func main() {
	sfList := flag.String("sf", "0.01,0.1", "comma-separated scale factors")
	fill := flag.Float64("fill", 0.8, "fill factor of the updatable schema (paper: 0.8)")
	page := flag.Int("page", 1024, "logical page size in tuples")
	minTime := flag.Duration("mintime", 200*time.Millisecond, "minimum measurement time per query")
	seed := flag.Uint64("seed", 42, "generator seed")
	flag.Parse()

	fmt.Println("XMark evaluation: read-only 'ro' vs updatable 'up' schema (Figure 9)")
	fmt.Printf("page size %d tuples, fill factor %.2f, seed %d\n\n", *page, *fill, *seed)

	type scaleResult struct {
		sf    float64
		mb    float64
		ro    [20]time.Duration
		up    [20]time.Duration
		nodes int
	}
	var results []scaleResult

	for _, sfStr := range strings.Split(*sfList, ",") {
		sf, err := strconv.ParseFloat(strings.TrimSpace(sfStr), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmarkbench: bad scale factor %q\n", sfStr)
			os.Exit(1)
		}
		fmt.Printf("--- SF %g: generating... ", sf)
		var buf bytes.Buffer
		n, err := xmark.NewGenerator(sf, *seed).WriteTo(&buf)
		check(err)
		fmt.Printf("%.2f MB; shredding... ", float64(n)/(1<<20))
		tree, err := shred.ParseString(buf.String(), shred.Options{})
		check(err)
		buf.Reset()
		ro, err := rostore.Build(tree)
		check(err)
		up, err := core.Build(tree, core.Options{PageSize: *page, FillFactor: *fill})
		check(err)
		fmt.Printf("%d nodes\n", ro.LiveNodes())

		res := scaleResult{sf: sf, mb: float64(n) / (1 << 20), nodes: ro.LiveNodes()}
		for i, q := range xmark.Queries {
			res.ro[i] = measure(q, ro, *minTime)
			res.up[i] = measure(q, up, *minTime)
			fmt.Printf("  Q%-2d %-58s ro %10s  up %10s  %+6.1f%%\n",
				q.Num, q.Desc, fmtDur(res.ro[i]), fmtDur(res.up[i]), overhead(res.ro[i], res.up[i]))
		}
		results = append(results, res)
		fmt.Println()
	}

	// The paper's table: per query, ro and up seconds per scale.
	fmt.Println("read-only 'ro' vs updateable 'up' schema (seconds)")
	fmt.Printf("%-4s", "Q")
	for _, r := range results {
		fmt.Printf(" | %10s %10s", fmt.Sprintf("ro %.2gMB", r.mb), "up")
	}
	fmt.Println()
	for i := range xmark.Queries {
		fmt.Printf("Q%-3d", i+1)
		for _, r := range results {
			fmt.Printf(" | %10.4f %10.4f", r.ro[i].Seconds(), r.up[i].Seconds())
		}
		fmt.Println()
	}
	fmt.Printf("\noverhead of the updatable schema [%%]\n%-4s", "Q")
	for _, r := range results {
		fmt.Printf(" %10s", fmt.Sprintf("%.2gMB", r.mb))
	}
	fmt.Println()
	for i := range xmark.Queries {
		fmt.Printf("Q%-3d", i+1)
		for _, r := range results {
			fmt.Printf(" %+9.1f%%", overhead(r.ro[i], r.up[i]))
		}
		fmt.Println()
	}
	fmt.Printf("%-4s", "avg")
	for _, r := range results {
		var sum float64
		for i := range xmark.Queries {
			sum += overhead(r.ro[i], r.up[i])
		}
		fmt.Printf(" %+9.1f%%", sum/float64(len(xmark.Queries)))
	}
	fmt.Println()
	fmt.Println("\npaper (Figure 9): overhead <7% at 1.1MB, ~15% avg at 11MB, <30% avg at 1.1GB")
}

func measure(q xmark.Query, v xenc.DocView, minTime time.Duration) time.Duration {
	// Warm up once, then repeat until the budget is filled.
	if _, err := q.Run(v); err != nil {
		check(err)
	}
	var reps int
	start := time.Now()
	for time.Since(start) < minTime {
		if _, err := q.Run(v); err != nil {
			check(err)
		}
		reps++
	}
	return time.Since(start) / time.Duration(reps)
}

func overhead(ro, up time.Duration) float64 {
	if ro == 0 {
		return 0
	}
	return 100 * (float64(up)/float64(ro) - 1)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmarkbench:", err)
		os.Exit(1)
	}
}
