package mxq

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// The benchmark trajectory: one BENCH_<pr>.json at the repository root
// per PR that measured bench/run.sh against its parent. Each comparison
// holds one workload × metric: the seeds, the parent's and the change's
// runs in pair order, and the figures derived from them. Both gated
// metrics (setup_s, disk_bytes_per_doc_byte) are better lower. Where a
// PR's record kept no raw runs, parent and change are null and the
// figures are the ones it printed.
type trajectory struct {
	PR          int          `json:"pr"`
	Comparisons []comparison `json:"comparisons"`
}

type comparison struct {
	Workload    string    `json:"workload"`
	Metric      string    `json:"metric"`
	Run         string    `json:"run"`
	Seeds       []int     `json:"seeds"`
	Parent      []float64 `json:"parent"`
	Change      []float64 `json:"change"`
	Median      []float64 `json:"median"`
	Q1          []float64 `json:"q1"`
	Q3          []float64 `json:"q3"`
	ChangeLower *int      `json:"change_lower"`
	Verdict     string    `json:"verdict"`
}

// quantile is the linear interpolation between closest ranks (Hyndman
// and Fan's type 7, the default of R and numpy): with the n runs sorted,
// the q-quantile sits at index (n-1)q.
func quantile(runs []float64, q float64) float64 {
	s := append([]float64(nil), runs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// verdict judges a comparison from its runs. "identical": every pair
// equal. "met": at least 10 pairs, the change lower in at least 9 of 10
// (ties count for neither), the medians further apart than the parent's
// interquartile range, and the change's third quartile below the
// parent's first. "regressed": the same the other way round. Anything
// else is "unresolved".
func verdict(parent, change []float64) string {
	n, lower, higher := len(parent), 0, 0
	for i := range parent {
		if change[i] < parent[i] {
			lower++
		} else if change[i] > parent[i] {
			higher++
		}
	}
	gap := math.Abs(quantile(parent, .5) - quantile(change, .5))
	spread := quantile(parent, .75) - quantile(parent, .25)
	switch {
	case lower == 0 && higher == 0:
		return "identical"
	case n >= 10 && 10*lower >= 9*n && gap > spread && quantile(change, .75) < quantile(parent, .25):
		return "met"
	case n >= 10 && 10*higher >= 9*n && gap > spread && quantile(change, .25) > quantile(parent, .75):
		return "regressed"
	}
	return "unresolved"
}

// TestTrajectory recomputes every committed comparison from its raw runs
// — median, quartiles, change-lower count and verdict — and fails where
// the file says otherwise, so that a claim cannot drift from its data. A
// "met" verdict needs raw runs, at least 10 pairs and quartiles that do
// not overlap.
func TestTrajectory(t *testing.T) {
	files, err := filepath.Glob("BENCH_[0-9]*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no trajectory file (BENCH_<pr>.json): %v", err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var tr trajectory
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if want := filepath.Base(f); want != "BENCH_"+strconv.Itoa(tr.PR)+".json" {
			t.Errorf("%s holds pr %d", f, tr.PR)
		}
		for _, c := range tr.Comparisons {
			label := f + ": " + c.Workload + " " + c.Metric + " " + c.Run
			switch c.Verdict {
			case "met", "unresolved", "regressed", "identical":
			default:
				t.Errorf("%s: verdict %q", label, c.Verdict)
			}
			if c.Parent == nil {
				if c.Verdict == "met" {
					t.Errorf("%s: met without raw runs", label)
				}
				continue
			}
			if len(c.Parent) != len(c.Seeds) || len(c.Change) != len(c.Seeds) {
				t.Errorf("%s: %d seeds, %d parent runs, %d change runs", label, len(c.Seeds), len(c.Parent), len(c.Change))
				continue
			}
			for i, runs := range [][]float64{c.Parent, c.Change} {
				if len(c.Median) != 2 || len(c.Q1) != 2 || len(c.Q3) != 2 ||
					!near(c.Median[i], quantile(runs, .5)) || !near(c.Q1[i], quantile(runs, .25)) || !near(c.Q3[i], quantile(runs, .75)) {
					t.Errorf("%s: side %d median %v q1 %v q3 %v, recomputed %.6f %.6f %.6f", label, i, c.Median, c.Q1, c.Q3,
						quantile(runs, .5), quantile(runs, .25), quantile(runs, .75))
				}
			}
			lower := 0
			for i := range c.Parent {
				if c.Change[i] < c.Parent[i] {
					lower++
				}
			}
			if c.ChangeLower == nil || *c.ChangeLower != lower {
				t.Errorf("%s: change_lower %v, recomputed %d", label, c.ChangeLower, lower)
			}
			if v := verdict(c.Parent, c.Change); v != c.Verdict {
				t.Errorf("%s: verdict %q, recomputed %q", label, c.Verdict, v)
			}
			if c.Verdict == "met" && (len(c.Parent) < 10 || c.Q3[1] >= c.Q1[0]) {
				t.Errorf("%s: met with %d pairs and quartiles %v / %v", label, len(c.Parent), c.Q1, c.Q3)
			}
		}
	}
}
