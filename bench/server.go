package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mxq/client"
)

// buildMxqd compiles cmd/mxqd from the source tree this module replaces
// mxq with, into outDir. The benchmark always measures the daemon built
// from the checkout it runs in.
func buildMxqd(outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "mxqd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "mxq/cmd/mxqd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mxqd: %v\n%s", err, out)
	}
	return bin, nil
}

// procs tracks every mxqd this process started, so that any exit path
// can stop them and wait for them.
var procs struct {
	sync.Mutex
	live map[*mxqd]bool
}

func killAllServers() {
	procs.Lock()
	var all []*mxqd
	for m := range procs.live {
		all = append(all, m)
	}
	procs.Unlock()
	for _, m := range all {
		m.kill()
	}
}

// mxqd is one running server process.
type mxqd struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when stderr is drained and the process reaped
	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startMxqd spawns bin on dir with the given flags and waits until it
// listens. The listen address is taken from the daemon's own log line,
// so the kernel picks a free port.
func startMxqd(bin, dir string, flags []string) (*mxqd, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, flags...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	m := &mxqd{cmd: cmd, done: make(chan struct{})}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*mxqd]bool{}
	}
	procs.live[m] = true
	procs.Unlock()

	addrC := make(chan string, 1)
	go func() {
		defer close(m.done)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !announced {
				if f := strings.Fields(rest); len(f) > 0 {
					addrC <- f[0]
					announced = true
				}
			}
			m.mu.Lock()
			if m.tail = append(m.tail, line); len(m.tail) > 20 {
				m.tail = m.tail[1:]
			}
			m.mu.Unlock()
		}
		cmd.Wait()
	}()
	select {
	case m.addr = <-addrC:
		return m, nil
	case <-m.done:
		m.forget()
		return nil, fmt.Errorf("mxqd exited before listening:\n%s", m.stderrTail())
	case <-time.After(30 * time.Second):
		m.kill()
		return nil, fmt.Errorf("mxqd did not listen within 30s:\n%s", m.stderrTail())
	}
}

func (m *mxqd) stderrTail() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return strings.Join(m.tail, "\n")
}

func (m *mxqd) forget() {
	procs.Lock()
	delete(procs.live, m)
	procs.Unlock()
}

// kill sends SIGKILL and waits until the process has ended.
func (m *mxqd) kill() {
	m.cmd.Process.Signal(syscall.SIGKILL)
	<-m.done
	m.forget()
}

func (m *mxqd) dial(ctx context.Context) (*client.Client, error) {
	return client.Dial(ctx, m.addr)
}

// cpuSeconds is the CPU time the process's threads have run so far, from
// the scheduler's per-thread accounting (nanoseconds; the utime and
// stime of /proc/<pid>/stat tick in hundredths of a second, too coarse
// for a round of a third of a second).
func (m *mxqd) cpuSeconds() (float64, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", m.cmd.Process.Pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", m.cmd.Process.Pid, err)
	}
	var ns uint64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		fields := strings.Fields(string(b))
		if len(fields) < 1 {
			return 0, fmt.Errorf("unexpected %s: %q", f, b)
		}
		run, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unexpected %s: %q", f, b)
		}
		ns += run
	}
	return float64(ns) / 1e9, nil
}

// memMB reads a kB field (VmRSS, VmHWM) of /proc/<pid>/status in MB.
func (m *mxqd) memMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", m.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			// A checkpoint may retire a file between listing and stat.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total, err
}
