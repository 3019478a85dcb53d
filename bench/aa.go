package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// aaEntry is one metric on one workload across the runs of a study.
type aaEntry struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Min      float64   `json:"min"`
	Median   float64   `json:"median"`
	Max      float64   `json:"max"`
	// RelRange is (max-min)/median. RuleBound is twice that, rounded up
	// to the next 0.05 and never below 0.05: the bound the metric would
	// need. One that needs more than 0.10 on any workload is printed as
	// a diagnostic, not gated with a wide bound.
	RelRange  float64 `json:"rel_range"`
	RuleBound float64 `json:"rule_bound"`
}

type aaStudy struct {
	Runs int    `json:"runs"`
	Seed uint64 `json:"seed"`
	// Host is the first run's stamp; Loadavg1 and CalibMS have one value
	// per run made, in order, and NoisyHost says whether any run started
	// above the noise guard's load average.
	Host      hostStamp `json:"host"`
	Loadavg1  []float64 `json:"loadavg_1min"`
	CalibMS   []float64 `json:"host_calib_ms"`
	NoisyHost bool      `json:"noisy_host"`
	Config    config    `json:"config"`
	Entries   []aaEntry `json:"entries"`
}

// calmWait is how long a study waits before a run for the load average
// to fall below the noise guard.
const calmWait = 5 * time.Minute

// awaitCalm waits, at most calmWait, until the 1-minute load average is
// below the noise guard. Each run of a study leaves it near 2, so without
// the wait every run but the first would be marked noisy_host by the
// study's own previous run. Nothing is retried or discarded: the run is
// made when the wait ends, whatever the load average is then.
func awaitCalm(ctx context.Context) {
	deadline := time.Now().Add(calmWait)
	for first := true; loadavg1() > noisyLoadavg && time.Now().Before(deadline) && ctx.Err() == nil; first = false {
		if first {
			fmt.Printf("-- waiting up to %v for the load average to fall below %.1f\n", calmWait, noisyLoadavg)
		}
		time.Sleep(5 * time.Second)
	}
}

// runAA runs the listed workloads n times on one seed and writes every
// metric's values and spread to AA.json. Every run made is in the file.
func runAA(ctx context.Context, cfg config, names []string, bin, scratch string, n int) error {
	study := aaStudy{Runs: n, Seed: cfg.Seed, Config: cfg}
	index := map[string]int{}
	add := func(w, name string, m metric) {
		key := w + "/" + name
		i, ok := index[key]
		if !ok {
			i = len(study.Entries)
			index[key] = i
			study.Entries = append(study.Entries, aaEntry{Workload: w, Metric: name, Unit: m.Unit})
		}
		study.Entries[i].Values = append(study.Entries[i].Values, m.Value)
	}
	for run := 0; run < n; run++ {
		for _, w := range names {
			awaitCalm(ctx)
			rep, err := servedWorkload(ctx, cfg, w, bin, scratch)
			if err != nil {
				return fmt.Errorf("run %d, %s: %w", run, w, err)
			}
			printWireReport(rep)
			if rep.Failed > 0 {
				return fmt.Errorf("run %d, %s: %d operations failed: %s", run, w, rep.Failed, rep.FirstFailure)
			}
			if len(study.Loadavg1) == 0 {
				study.Host = rep.Host
			}
			study.Loadavg1 = append(study.Loadavg1, rep.Host.Loadavg1)
			study.CalibMS = append(study.CalibMS, rep.HostCalibMS)
			study.NoisyHost = study.NoisyHost || rep.Host.NoisyHost
			for _, m := range endToEnd {
				add(w, m.Name, rep.Metrics[m.Name])
			}
			for _, name := range rep.diagnostics() {
				add(w, name, rep.Metrics[name])
			}
		}
	}
	fmt.Printf("\n%-10s %-26s %12s %12s %12s %9s %6s\n", "workload", "metric", "min", "median", "max", "range", "rule")
	for i := range study.Entries {
		e := &study.Entries[i]
		s := medianOfRounds(e.Values)
		e.Min, e.Median, e.Max = s.Min, s.Value, s.Max
		if e.Median != 0 { // a diagnostic may be 0 on every run
			e.RelRange = (e.Max - e.Min) / e.Median
		}
		e.RuleBound = math.Max(0.05, math.Ceil(2*e.RelRange/0.05-1e-9)*0.05)
		fmt.Printf("%-10s %-26s %12.4f %12.4f %12.4f %8.2f%% %6.2f\n", e.Workload, e.Metric, e.Min, e.Median, e.Max, 100*e.RelRange, e.RuleBound)
	}
	out, err := json.MarshalIndent(study, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("AA.json", append(out, '\n'), 0o644)
}
