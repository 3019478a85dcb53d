// Command mxqbench is the served-path benchmark for mxqd: four
// fixed-work workloads driven over the wire against a real daemon, and a
// traced mode that replays the same operations in-process, layer by
// layer. See README.md for the definitions and BENCHMARK.json at the
// repository root for the gated metrics and their bounds.
//
// It runs from this directory, normally through run.sh:
//
//	bash bench/run.sh -workload scan_ro -seed 1 -seconds 15 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// workloadWhy is printed with each run and repeated in BENCHMARK.json.
var workloadWhy = map[string]string{
	scanRO:   "whole-document descendant scans with one-item replies: xpath + staircase do the work, wire and durability almost none",
	fetchRO:  "bulk subtree fetches of 200-360 KB: materialize, serialize, frame encode and client decode dominate; allocation-heavy",
	updateWO: "XUpdate commits only: xupdate parse, page COW, tx commit, WAL append, with background incremental checkpoints",
	mixedRW:  "point reads under an open-loop writer: each commit retires the cached read snapshot; per-request overhead dominates",
}

// result is the last line of standard output: the form the benchmark
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run one workload (scan_ro, fetch_ro, update_wo, mixed_rw); default all four")
	seed := flag.Uint64("seed", 1, "seed of the generated document and op sequences")
	seconds := flag.Int("seconds", 15, "sets the fixed op counts: about this long a timed phase on the reference host")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting the per-layer metrics")
	aa := flag.Int("aa", 0, "run the whole suite this many times and write the per-metric spread to AA.json")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: mxqbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa n]")
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if _, ok := workloadWhy[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	cfg := defaultConfig(*seed, *seconds)

	// Stop every server and remove the data directories on any way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		killAllServers()
	}()
	defer killAllServers()

	scratch, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(scratch)
	bin, err := buildMxqd("out")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *aa > 0 {
		if err := runAA(ctx, cfg, names, bin, scratch, *aa); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	code := 0
	for _, w := range names {
		var res result
		var err error
		if *trace == 1 {
			res, err = traceWorkload(ctx, cfg, w, bin, scratch)
		} else {
			res, err = wireWorkload(ctx, cfg, w, bin, scratch)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w, err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// wireWorkload makes one served run and prints its report.
func wireWorkload(ctx context.Context, cfg config, w, bin, scratch string) (result, error) {
	rep, err := servedWorkload(ctx, cfg, w, bin, scratch)
	if err != nil {
		return result{}, err
	}
	printWireReport(rep)
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultValue{}}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = resultValue{rep.Metrics[m.Name].Value, m.Unit}
	}
	return res, nil
}

// diagnostics names the metrics of the report that are not gated, sorted.
func (rep *wireReport) diagnostics() []string {
	var names []string
	for name := range rep.Metrics {
		if !gated(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func printWireReport(rep *wireReport) {
	fmt.Printf("== %s: %s\n", rep.Workload, workloadWhy[rep.Workload])
	printHost(rep.Host, rep.HostCalibMS)
	c := rep.Config
	fmt.Printf("conditions: seed %d, SF %g (%d document bytes), %d ops in %d rounds after %d warm-up, mxqd %v, flush policy %s\n",
		c.Seed, c.SF, rep.DocBytes, c.Ops[rep.Workload], rounds, c.warmupOps(rep.Workload), rep.ServerFlags, rep.FlushPolicy)
	for _, m := range endToEnd {
		printMetric(m.Name, rep.Metrics[m.Name])
	}
	fmt.Printf("  %-26s %12.6f %-6s (%d failed of %d attempted)\n", "failed_frac", rep.FailedFrac, "ratio", rep.Failed, rep.Attempted)
	if rep.FirstFailure != "" {
		fmt.Printf("  first failure: %s\n", rep.FirstFailure)
	}
	fmt.Println("  diagnostics (not gated):")
	for _, name := range rep.diagnostics() {
		printMetric(name, rep.Metrics[name])
	}
	line, _ := json.Marshal(rep)
	fmt.Printf("report: %s\n", line)
}

// traceWorkload makes one traced run and prints its report.
func traceWorkload(ctx context.Context, cfg config, w, bin, scratch string) (result, error) {
	spanFile := filepath.Join("out", "trace_"+w+".jsonl")
	host, calib := readHostStamp(), hostCalibMS()
	rep, err := runTrace(ctx, cfg, w, bin, scratch, spanFile)
	if err != nil {
		return result{}, err
	}
	rep.Host, rep.HostCalibMS = host, calib
	fmt.Printf("== %s, traced in-process replay\n", w)
	printHost(host, calib)
	fmt.Printf("conditions: seed %d, SF %g; traced ops per class %v (the workload's own class at one round's length, the others as probes)\n",
		cfg.Seed, cfg.SF, rep.OpCounts)
	res := result{Correct: true, Attempted: rep.Attempted, Metrics: map[string]resultValue{}}
	for _, m := range perLayer {
		exact := ""
		if m.Exact {
			exact = " (exact)"
		}
		fmt.Printf("  %-30s %14.4f %-6s%s\n", m.Name, rep.Layers[m.Name], m.Unit, exact)
		res.Metrics[m.Name] = resultValue{rep.Layers[m.Name], m.Unit}
	}
	class := classOf[w]
	fmt.Printf("  %s ops: stage self times cover %.1f%% of in-process op time; traced ops took %+.1f%% against untraced\n",
		class, 100*rep.Coverage[class], 100*rep.Overhead[class])
	fmt.Printf("  %d spans written to %s\n", rep.Spans, spanFile)
	line, _ := json.Marshal(rep)
	fmt.Printf("report: %s\n", line)
	return res, nil
}

func printHost(h hostStamp, calibMS float64) {
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, loadavg %.2f, host_calib_ms %.1f\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Loadavg1, calibMS)
	if h.NoisyHost {
		fmt.Printf("WARNING: 1-minute load average %.2f is above %.1f; this run is marked noisy_host\n", h.Loadavg1, noisyLoadavg)
	}
}

func printMetric(name string, m metric) {
	fmt.Printf("  %-26s %12.4f %-6s", name, m.Value, m.Unit)
	if len(m.Rounds) > 1 {
		fmt.Printf(" rounds min %.4f max %.4f (n=%d)", m.Min, m.Max, len(m.Rounds))
	}
	fmt.Println()
}
