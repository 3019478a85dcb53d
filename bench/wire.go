package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mxq/client"
	"mxq/internal/ckpt"
	"mxq/internal/xmark"
)

// metric is one reported number with its unit and per-round spread.
type metric struct {
	spread
	Unit string `json:"unit"`
}

// endToEnd lists the gated end-to-end metrics in report order, with
// their units. BENCHMARK.json carries the same names and the bounds.
// Every other metric a served run computes is printed as a diagnostic:
// README.md lists them with the same-code spread that keeps them from
// carrying a bound.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"disk_bytes_per_doc_byte", "ratio"},
}

func gated(name string) bool {
	for _, m := range endToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

// wireReport is everything one workload's served run produced.
type wireReport struct {
	Workload    string    `json:"workload"`
	Host        hostStamp `json:"host"`
	HostCalibMS float64   `json:"host_calib_ms"`
	Config      config    `json:"config"`
	ServerFlags []string  `json:"server_flags"`
	FlushPolicy string    `json:"flush_policy"`
	DocBytes    int       `json:"doc_bytes"`
	// Metrics holds the gated metrics and the diagnostics alike; gated
	// tells them apart.
	Metrics      map[string]metric `json:"metrics"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FailedFrac   float64           `json:"failed_frac"`
	FirstFailure string            `json:"first_failure,omitempty"`
}

// readOp is one checked query: the reply must hash to Want, or, where
// the document changes under the reader, be one element whose XML starts
// with Prefix.
type readOp struct {
	Query  string
	Want   answer
	Prefix string
}

func (op readOp) correct(items []client.Item) bool {
	if op.Prefix != "" {
		return len(items) == 1 && items[0].Kind == "element" && strings.HasPrefix(items[0].XML, op.Prefix)
	}
	return answerOfItems(items) == op.Want
}

// wireRun drives one workload against real mxqd processes.
type wireRun struct {
	cfg      config
	workload string
	bin      string // mxqd binary
	scratch  string // data dirs are made under it
	xml      string
	seeding  []updOp
	oracle   *oracle
	reads    []readOp // warm-up then timed reads (read workloads)
	commits  []updOp  // warm-up then timed commits (update_wo)

	attempted atomic.Int64
	mu        sync.Mutex
	failed    int
	firstFail string
}

// fail counts one failed operation: an error reply, an Overloaded, a
// wrong answer or a lost commit.
func (r *wireRun) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed++; r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
}

// transport reports whether err broke the connection (as opposed to the
// server answering with an error frame, which is a failed operation the
// run continues past).
func transport(err error) bool {
	var e *client.Error
	return !errors.As(err, &e) || e.Status == 0
}

// served is one live server with the harness's view of its state.
type served struct {
	srv   *mxqd
	dir   string
	c     *client.Client
	model *model
}

func (s *served) stop() {
	s.c.Close()
	s.srv.kill()
	os.RemoveAll(s.dir)
}

// query runs one read. answered is false when the server replied with an
// error frame: that is one failed operation, already counted, and there
// is no reply to check.
func (r *wireRun) query(ctx context.Context, c *client.Client, op readOp) (items []client.Item, answered bool, err error) {
	r.attempted.Add(1)
	items, err = c.Query(ctx, docName, op.Query, nil)
	if err != nil {
		if transport(err) {
			return nil, false, err
		}
		r.fail("%s: %v", op.Query, err)
		return nil, false, nil
	}
	return items, true, nil
}

func (r *wireRun) check(op readOp, items []client.Item) {
	if !op.correct(items) {
		r.fail("%s: wrong answer (%d items)", op.Query, len(items))
	}
}

// commit sends one XUpdate commit and, once acknowledged, records what
// it must have left behind.
func (r *wireRun) commit(ctx context.Context, s *served, c *client.Client, op updOp) error {
	r.attempted.Add(1)
	res, err := c.Update(ctx, docName, op.XU)
	if err != nil {
		if transport(err) {
			return err
		}
		r.fail("commit: %v", err)
		return nil
	}
	if res.Ops != 1 || res.Affected != 1 {
		r.fail("commit ran %d commands on %d nodes, want 1 on 1: %s", res.Ops, res.Affected, op.XU)
	}
	s.model.apply(op)
	return nil
}

// probe reads one marker back and compares it with the model.
func (r *wireRun) probe(ctx context.Context, s *served, probe string) (bool, error) {
	r.attempted.Add(1)
	items, err := s.c.Query(ctx, docName, probe, nil)
	if err != nil {
		if transport(err) {
			return false, err
		}
		r.fail("%s: %v", probe, err)
		return false, nil
	}
	return len(items) == 1 && items[0].Value == s.model.want[probe], nil
}

// start spawns mxqd on dir and opens the harness's first connection.
func (r *wireRun) start(ctx context.Context, dir string, ckptRecords int) (*mxqd, *client.Client, error) {
	srv, err := startMxqd(r.bin, dir, r.cfg.serverFlags(ckptRecords))
	if err != nil {
		return nil, nil, err
	}
	c, err := srv.dial(ctx)
	if err != nil {
		srv.kill()
		return nil, nil, err
	}
	return srv, c, nil
}

// setup is the timed set-up path: spawn mxqd on a fresh directory, load
// the document, apply the seeding commits, wait until the checkpoint
// policy has published the first image, and answer the fixed warm-up.
func (r *wireRun) setup(ctx context.Context) (*served, float64, error) {
	dir, err := os.MkdirTemp(r.scratch, r.workload+"-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	srv, c, err := r.start(ctx, dir, r.cfg.CkptRecords)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s := &served{srv: srv, dir: dir, c: c, model: newModel()}
	if err := r.setupOn(ctx, s); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("setup: %w\nmxqd stderr:\n%s", err, srv.stderrTail())
	}
	return s, time.Since(start).Seconds(), nil
}

func (r *wireRun) setupOn(ctx context.Context, s *served) error {
	if err := s.c.Load(ctx, docName, r.xml); err != nil {
		return err
	}
	for _, op := range r.seeding {
		if err := r.commit(ctx, s, s.c, op); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.c.DocStatus(ctx, docName)
		if err != nil {
			return err
		}
		if st.CkptChunksWritten > 0 {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("no checkpoint image 60s after the seeding commits")
		}
		time.Sleep(2 * time.Millisecond)
	}
	n := r.cfg.warmupOps(r.workload)
	if r.workload == updateWO {
		for _, op := range r.commits[:n] {
			if err := r.commit(ctx, s, s.c, op); err != nil {
				return err
			}
		}
		return nil
	}
	for _, op := range r.reads[:n] {
		items, answered, err := r.query(ctx, s.c, op)
		if err != nil {
			return err
		}
		if answered {
			r.check(op, items)
		}
	}
	return nil
}

// phase is what the timed phase measured, round by round.
type phase struct {
	lat    [][]float64 // primary-class latencies, ms
	start  []time.Time
	end    []time.Time
	cpu    []float64 // mxqd CPU seconds spent in the round
	rss    []float64 // VmRSS sampled once a second over the whole phase, MB
	disk   []float64 // bytes under the data directory, sampled five times a second
	writer *writerLog
}

// timedPhase runs ops [from, from+n) in equal rounds, timing each call
// of do and reading mxqd's CPU clock at the round boundaries.
func (r *wireRun) timedPhase(s *served, from, n int, do func(i int) error) (*phase, error) {
	ph := &phase{}
	// Five times a second read the size of the server's data directory,
	// and on every fifth reading its resident set: on update_wo the
	// directory grows and is swept once per checkpoint interval of about
	// 1.5 s, which one reading a second would alias with. One more of
	// each at the end gives the shortest phase a sample.
	sample := func(k int) {
		if b, err := dirBytes(s.dir); err == nil {
			ph.disk = append(ph.disk, float64(b))
		}
		if k%5 != 0 {
			return
		}
		if mb, err := s.srv.memMB("VmRSS"); err == nil {
			ph.rss = append(ph.rss, mb)
		}
	}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for k := 1; ; k++ {
			select {
			case <-tick.C:
				sample(k)
			case <-stop:
				sample(0)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		sampler.Wait()
	}()
	per := n / rounds
	for lo := from; lo < from+n; lo += per {
		hi := lo + per
		lat := make([]float64, 0, per)
		cpu0, err := s.srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			st := time.Now()
			if err := do(i); err != nil {
				return nil, err
			}
			lat = append(lat, ms(time.Since(st)))
		}
		t1 := time.Now()
		cpu1, err := s.srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		ph.lat = append(ph.lat, lat)
		ph.start = append(ph.start, t0)
		ph.end = append(ph.end, t1)
		ph.cpu = append(ph.cpu, cpu1-cpu0)
	}
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// readPhase is the timed phase of the read workloads: a closed loop on
// one connection. Replies are checked on a second goroutine while the
// loop waits for the next reply, so verification does not stretch the
// loop.
func (r *wireRun) readPhase(ctx context.Context, s *served, from, n int) (*phase, error) {
	type reply struct {
		op    readOp
		items []client.Item
	}
	replies := make(chan reply, 1)
	var checked sync.WaitGroup
	checked.Add(1)
	go func() {
		defer checked.Done()
		for rp := range replies {
			r.check(rp.op, rp.items)
		}
	}()
	ph, err := r.timedPhase(s, from, n, func(i int) error {
		items, answered, err := r.query(ctx, s.c, r.reads[i])
		if answered {
			replies <- reply{r.reads[i], items}
		}
		return err
	})
	close(replies)
	checked.Wait()
	return ph, err
}

// writerLog is what mixed_rw's open-loop writer measured.
type writerLog struct {
	done []time.Time // completion time of each commit
	lat  []float64   // ms from the scheduled send time to the reply
	late []float64   // ms the send ran behind its schedule
	err  error
}

// runWriter commits at a fixed rate until stop closes. Each commit is due
// at start + i/rate whether or not the previous one has returned in
// time, and its latency counts from when it was due.
func (r *wireRun) runWriter(ctx context.Context, s *served, c *client.Client, gen *updGen, stop <-chan struct{}) *writerLog {
	wl := &writerLog{}
	interval := time.Second / time.Duration(r.cfg.WriterRate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		select {
		case <-stop:
			return wl
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		if wl.err = r.commit(ctx, s, c, gen.next()); wl.err != nil {
			return wl
		}
		done := time.Now()
		wl.done = append(wl.done, done)
		wl.lat = append(wl.lat, ms(done.Sub(due)))
		wl.late = append(wl.late, ms(sent.Sub(due)))
	}
}

// quiesce waits until no checkpoint is due or running: the published
// image is within the policy of the WAL tail and the checkpoint counters
// have stopped moving.
func (r *wireRun) quiesce(ctx context.Context, s *served) (client.DocStatus, error) {
	deadline := time.Now().Add(60 * time.Second)
	var prev client.DocStatus
	stable := 0
	for {
		st, err := s.c.DocStatus(ctx, docName)
		if err != nil {
			return st, err
		}
		due := st.LastLSN-ckpt.CurrentLSN(s.dir, docName) >= uint64(r.cfg.CkptRecords)
		if st == prev && !due {
			if stable++; stable >= 5 {
				return st, nil
			}
		} else {
			stable = 0
		}
		prev = st
		if time.Now().After(deadline) {
			return st, errors.New("checkpoints did not settle within 60s")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// recovery measures SIGKILL → respawn → first correct answer, cycles
// times over an identical image and WAL tail, and checks after every
// cycle that the acknowledged commits are still there. A killed process
// leaves the OS page cache intact, so with -nosync this shows that
// recovery finds everything that reached the kernel, not that it would
// survive a power cut.
func (r *wireRun) recovery(ctx context.Context, s *served, st client.DocStatus) ([]float64, error) {
	write := r.workload == updateWO || r.workload == mixedRW
	ckptRecords := r.cfg.CkptRecords
	if write {
		// Restart with automatic checkpoints off and extend the WAL tail
		// beyond the published image to exactly TailCommits records.
		ckptRecords = 0
		tail := int(st.LastLSN - ckpt.CurrentLSN(s.dir, docName))
		if err := r.respawn(ctx, s, ckptRecords); err != nil {
			return nil, err
		}
		gen := newUpdGen(r.cfg.Seed, streamTail, r.cfg.SF, true)
		for ; tail < r.cfg.TailCommits; tail++ {
			if err := r.commit(ctx, s, s.c, gen.next()); err != nil {
				return nil, err
			}
		}
	}
	sampler := newRNG(r.cfg.Seed, streamSample)
	persons := fmt.Sprint(xmark.CountsFor(r.cfg.SF).Persons)
	var secs []float64
	for i := 0; i < r.cfg.RecoveryCycles; i++ {
		start := time.Now()
		if err := r.respawn(ctx, s, ckptRecords); err != nil {
			return nil, err
		}
		ok, err := r.probe(ctx, s, s.model.last)
		if err != nil {
			return nil, err
		}
		if ok {
			secs = append(secs, time.Since(start).Seconds())
		} else {
			r.fail("cycle %d: last acknowledged commit missing at %s", i, s.model.last)
		}
		for _, p := range s.model.sample(sampler, 50) {
			if ok, err := r.probe(ctx, s, p); err != nil {
				return nil, err
			} else if !ok {
				r.fail("cycle %d: acknowledged commit missing at %s", i, p)
			}
		}
		r.attempted.Add(1)
		items, err := s.c.Query(ctx, docName, "count(//person)", nil)
		if err != nil {
			return nil, err
		}
		if len(items) != 1 || items[0].Value != persons {
			r.fail("cycle %d: count(//person) is not %s", i, persons)
		}
	}
	if len(secs) == 0 {
		return nil, errors.New("no recovery cycle produced a correct answer")
	}
	return secs, nil
}

// respawn kills the server and starts a new one on the same directory.
func (r *wireRun) respawn(ctx context.Context, s *served, ckptRecords int) error {
	s.c.Close()
	s.srv.kill()
	srv, c, err := r.start(ctx, s.dir, ckptRecords)
	if err != nil {
		return err
	}
	s.srv, s.c = srv, c
	return nil
}

// prepare generates the workload's inputs and the answers to check
// replies against.
func (r *wireRun) prepare() error {
	cfg, w := r.cfg, r.workload
	var err error
	if r.xml, err = genDoc(cfg.SF, cfg.Seed); err != nil {
		return err
	}
	r.seeding = newUpdGen(cfg.Seed, streamSeeding, cfg.SF, true).take(cfg.SeedCommits)
	total := cfg.warmupOps(w) + cfg.Ops[w]
	var queries, prefixes []string
	switch w {
	case updateWO:
		r.commits = newUpdGen(cfg.Seed, streamUpdates, cfg.SF, false).take(total)
		return nil
	case mixedRW:
		queries, prefixes = pointPlan(cfg, total)
	case scanRO, fetchRO:
		if r.oracle, err = buildOracle(r.xml, r.seeding); err != nil {
			return err
		}
		if w == scanRO {
			queries = scanPlan(cfg, total)
		} else {
			set, err := r.oracle.fetchQueries()
			if err != nil {
				return err
			}
			queries = rotate(set, total)
		}
	default:
		return fmt.Errorf("unknown workload %q", w)
	}
	r.reads = make([]readOp, total)
	for i, q := range queries {
		r.reads[i].Query = q
		if prefixes != nil {
			r.reads[i].Prefix = prefixes[i]
		} else if r.reads[i].Want, err = r.oracle.expect(q); err != nil {
			return err
		}
	}
	return nil
}

// servedWorkload stamps the host, runs the calibration loop and makes
// one workload's served run.
func servedWorkload(ctx context.Context, cfg config, workload, bin, scratch string) (*wireReport, error) {
	host, calib := readHostStamp(), hostCalibMS()
	rep, err := runWire(ctx, cfg, workload, bin, scratch)
	if err != nil {
		return nil, err
	}
	rep.Host, rep.HostCalibMS = host, calib
	return rep, nil
}

// runWire makes one workload's served run.
func runWire(ctx context.Context, cfg config, workload, bin, scratch string) (*wireReport, error) {
	r := &wireRun{cfg: cfg, workload: workload, bin: bin, scratch: scratch}
	rep := &wireReport{
		Workload: workload, Config: cfg, ServerFlags: cfg.serverFlags(cfg.CkptRecords),
		FlushPolicy: "nosync (no fsync on WAL appends; checkpoints fsync as the product does)",
		Metrics:     map[string]metric{},
	}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	rep.DocBytes = len(r.xml)

	// Set up cfg.Setups times, each on a fresh directory; setup_s is the
	// median. The first server is the one measured: while the others are
	// set up and discarded it sits idle, which lets its heap settle after
	// the load before the timed phase starts.
	s, secs, err := r.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { s.stop() }()
	setups := []float64{secs}
	for i := 1; i < cfg.Setups; i++ {
		extra, secs, err := r.setup(ctx)
		if err != nil {
			return nil, err
		}
		extra.stop()
		setups = append(setups, secs)
	}

	before, err := s.c.DocStatus(ctx, docName)
	if err != nil {
		return nil, err
	}
	from, n := cfg.warmupOps(workload), cfg.Ops[workload]
	var ph *phase
	switch workload {
	case updateWO:
		ph, err = r.timedPhase(s, from, n, func(i int) error { return r.commit(ctx, s, s.c, r.commits[i]) })
	case mixedRW:
		ph, err = r.mixedPhase(ctx, s, from, n)
	default:
		ph, err = r.readPhase(ctx, s, from, n)
	}
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w\nmxqd stderr:\n%s", err, s.srv.stderrTail())
	}
	peak, _ := s.srv.memMB("VmHWM")

	after, err := r.quiesce(ctx, s)
	if err != nil {
		return nil, err
	}
	recov, err := r.recovery(ctx, s, after)
	if err != nil {
		return nil, fmt.Errorf("recovery phase: %w\nmxqd stderr:\n%s", err, s.srv.stderrTail())
	}

	put := func(name, unit string, s spread) { rep.Metrics[name] = metric{s, unit} }
	perRound := func(f func(j int) float64) spread {
		vals := make([]float64, len(ph.lat))
		for j := range vals {
			vals[j] = f(j)
		}
		return medianOfRounds(vals)
	}
	commitsIn := func(j int) int { // writer commits completed in round j
		if ph.writer == nil {
			return 0
		}
		k := 0
		for _, t := range ph.writer.done {
			if !t.Before(ph.start[j]) && t.Before(ph.end[j]) {
				k++
			}
		}
		return k
	}
	all := pool(ph.lat)
	timed := ph.end[len(ph.end)-1].Sub(ph.start[0]).Seconds()
	put("setup_s", "s", medianOfRounds(setups))
	put("ops_per_s", "1/s", perRound(func(j int) float64 {
		return float64(len(ph.lat[j])) / ph.end[j].Sub(ph.start[j]).Seconds()
	}))
	put("p50_ms", "ms", perRound(func(j int) float64 { return percentile(ph.lat[j], 50) }))
	put("p95_ms", "ms", single(percentile(all, 95)))
	put("p99_ms", "ms", single(percentile(all, 99)))
	put("cpu_ms_per_op", "ms", perRound(func(j int) float64 {
		return ph.cpu[j] * 1000 / float64(len(ph.lat[j])+commitsIn(j))
	}))
	put("rss_mb", "MB", medianOfRounds(ph.rss))
	put("rss_peak_mb", "MB", single(peak))
	put("recovery_s", "s", medianOfRounds(recov))
	put("disk_bytes_per_doc_byte", "ratio", single(mean(ph.disk)/float64(len(r.xml))))
	put("timed_s", "s", single(timed))
	commits := 0
	if workload == updateWO {
		commits = n
	}
	if wl := ph.writer; wl != nil && len(wl.lat) > 0 {
		commits = len(wl.lat)
		put("commit_p50_ms", "ms", single(percentile(wl.lat, 50)))
		put("commit_p95_ms", "ms", single(percentile(wl.lat, 95)))
		put("writer_late_p50_ms", "ms", single(percentile(wl.late, 50)))
		put("writer_late_max_ms", "ms", single(percentile(wl.late, 100)))
		put("commits_per_s", "1/s", single(float64(commits)/timed))
	}
	if commits > 0 {
		put("ckpt_bytes_per_commit", "B", single(float64(after.CkptBytesWritten-before.CkptBytesWritten)/float64(commits)))
	}

	rep.Attempted, rep.Failed, rep.FirstFailure = int(r.attempted.Load()), r.failed, r.firstFail
	rep.FailedFrac = float64(rep.Failed) / float64(rep.Attempted)
	return rep, nil
}

// mixedPhase is mixed_rw's timed phase: the closed-loop reader of
// readPhase on one connection and the open-loop writer on a second.
func (r *wireRun) mixedPhase(ctx context.Context, s *served, from, n int) (*phase, error) {
	wc, err := s.srv.dial(ctx)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	stop := make(chan struct{})
	logC := make(chan *writerLog, 1)
	gen := newUpdGen(r.cfg.Seed, streamWriter, r.cfg.SF, true)
	go func() { logC <- r.runWriter(ctx, s, wc, gen, stop) }()
	ph, err := r.readPhase(ctx, s, from, n)
	close(stop)
	wl := <-logC
	if err != nil {
		return nil, err
	}
	if wl.err != nil {
		return nil, fmt.Errorf("writer: %w", wl.err)
	}
	ph.writer = wl
	return ph, nil
}

// scratchDir makes the directory the run's data dirs live in, inside the
// benchmark's own out/ directory.
func scratchDir() (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp("out", "run-")
}
