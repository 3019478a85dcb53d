package main

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	s := medianOfRounds([]float64{10, 11, 9, 10.5, 40})
	if s.Value != 10.5 || s.Min != 9 || s.Max != 40 {
		t.Errorf("medianOfRounds = %+v, want value 10.5 in [9, 40]", s)
	}
	if got := pool([][]float64{{1, 2}, {3}, nil, {4}}); len(got) != 4 || got[3] != 4 {
		t.Errorf("pool = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100) with stages a [10,40) and b [50,90); b has child c [60,70).
	spans := []span{
		{Name: "op", ID: 1, Parent: 0, Class: "x", Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Class: "x", Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Class: "x", Start: 50, End: 90},
		{Name: "c", ID: 4, Parent: 3, Class: "x", Start: 60, End: 70},
		{Name: "op", ID: 5, Parent: 0, Class: "y", Start: 100, End: 200},
	}
	want := []int64{30, 30, 30, 10, 100}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	// Stages a, b and c account for 70 of op's 100; class y has none.
	if got := coverage(spans, "x", "op"); got != 0.7 {
		t.Errorf("coverage of x = %v, want 0.7", got)
	}
	if got := coverage(spans, "y", "op"); got != 0 {
		t.Errorf("coverage of y = %v, want 0", got)
	}
	if d := durations(spans, "x", "op"); len(d) != 1 || d[0] != 100 {
		t.Errorf("durations = %v", d)
	}
}

func TestModelFollowsAcknowledgedCommits(t *testing.T) {
	g := newUpdGen(1, streamUpdates, 0.005, false)
	m := newModel()
	appended := map[string][]string{}
	for i := 0; i < 2000; i++ {
		op := g.next()
		switch op.Kind {
		case "append":
			appended[op.Probe] = append(appended[op.Probe], op.Want)
		case "remove":
			st := appended[op.Probe]
			if len(st) == 0 {
				t.Fatalf("op %d removes a bidder that was never appended", i)
			}
			appended[op.Probe] = st[:len(st)-1]
		}
		m.apply(op)
	}
	for probe, st := range appended {
		got, ok := m.want[probe]
		if len(st) == 0 && ok || len(st) > 0 && got != st[len(st)-1] {
			t.Errorf("%s: model expects %q, appended stack is %v", probe, got, st)
		}
	}
	a, b := newUpdGen(7, streamUpdates, 0.005, false).take(50), newUpdGen(7, streamUpdates, 0.005, false).take(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two generators of one seed", i)
		}
	}
}

// servedMetrics are the issue's end-to-end metrics every served run must
// report, gated or not; mixed_rw adds commit_p50_ms.
var servedMetrics = []string{
	"setup_s", "ops_per_s", "p50_ms", "p95_ms", "cpu_ms_per_op", "rss_mb",
	"recovery_s", "disk_bytes_per_doc_byte",
}

// smokeConfig is the real run at about a hundredth of its size.
func smokeConfig() config {
	return config{
		SF: 0.005, Seed: 3, Seconds: 0,
		Ops:         map[string]int{scanRO: 30, fetchRO: 15, updateWO: 200, mixedRW: 400},
		SeedCommits: 100, CkptRecords: 100, TailCommits: 50,
		Setups: 1, RecoveryCycles: 2, WriterRate: 200,
	}
}

// TestSmoke runs all four workloads over the wire and the traced mode
// twice, and checks only what does not depend on timing: every metric is
// there, nothing failed, and the exact counts repeat.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns mxqd")
	}
	bin, err := buildMxqd(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig()
	ctx := context.Background()
	t.Cleanup(killAllServers)
	for _, w := range workloadNames {
		rep, err := runWire(ctx, cfg, w, bin, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted: %s", w, rep.Failed, rep.Attempted, rep.FirstFailure)
		}
		for _, m := range endToEnd {
			if got := rep.Metrics[m.Name].Unit; got != m.Unit {
				t.Errorf("%s: metric %s has unit %q, want %q", w, m.Name, got, m.Unit)
			}
		}
		want := servedMetrics
		if w == mixedRW {
			want = append(slices.Clone(want), "commit_p50_ms")
		}
		for _, name := range want {
			got, ok := rep.Metrics[name]
			if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
				t.Errorf("%s: metric %s = %v (present %v)", w, name, got.Value, ok)
			}
		}

		var runs [2]*traceReport
		for i := range runs {
			spanFile := filepath.Join(t.TempDir(), "trace.jsonl")
			if runs[i], err = runTrace(ctx, cfg, w, bin, t.TempDir(), spanFile); err != nil {
				t.Fatalf("%s traced: %v", w, err)
			}
		}
		for _, m := range perLayer {
			a, ok := runs[0].Layers[m.Name]
			b := runs[1].Layers[m.Name]
			if !ok || math.IsNaN(a) || math.IsInf(a, 0) {
				t.Errorf("%s: layer metric %s = %v (present %v)", w, m.Name, a, ok)
			}
			if m.Exact && a != b {
				t.Errorf("%s: exact count %s differs between two runs of one seed: %v, %v", w, m.Name, a, b)
			}
		}
	}
}
