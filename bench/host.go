package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostStamp records where a run was made, so numbers from a slow or
// busy host can be recognised next to the numbers it distorted.
type hostStamp struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Loadavg1   float64 `json:"loadavg_1min"`
	NoisyHost  bool    `json:"noisy_host"`
}

// noisyLoadavg is the 1-minute load average above which a run is marked
// noisy_host. The run is still made and reported.
const noisyLoadavg = 0.5

func readHostStamp() hostStamp {
	h := hostStamp{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The benchmark also runs from plain source trees, where there is no
	// commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.Loadavg1 = loadavg1()
	h.NoisyHost = h.Loadavg1 > noisyLoadavg
	return h
}

// loadavg1 is the 1-minute load average, 0 where /proc has none.
func loadavg1() float64 {
	b, _ := os.ReadFile("/proc/loadavg")
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// hostCalibMS times a fixed integer spin loop (about a second on the
// reference host). It does the same work on every call, so a larger
// value means the host was slower or busier when the workload ran.
func hostCalibMS() float64 {
	const iters = 550_000_000
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
