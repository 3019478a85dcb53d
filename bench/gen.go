package main

import (
	"bytes"
	"fmt"
	"sort"

	"mxq/internal/xmark"
)

// The four workloads, in the order a full run makes them.
const (
	scanRO   = "scan_ro"
	fetchRO  = "fetch_ro"
	updateWO = "update_wo"
	mixedRW  = "mixed_rw"
)

var workloadNames = []string{scanRO, fetchRO, updateWO, mixedRW}

// opsPerSecond turns -seconds into a fixed op count per workload: the
// timed phase does seconds × this many primary-class ops however long
// they take, so two runs of one seed do identical work. The four rates
// are 3 % of the issue's op counts (1200, 7000, 50000, 120000), so
// -seconds 15 does 45 % of each: one factor for all four workloads.
var opsPerSecond = map[string]int{
	scanRO:   36,
	fetchRO:  210,
	updateWO: 1500,
	mixedRW:  3600,
}

// rotation is the number of ops after which a workload's query sequence
// repeats its classes; a round is a whole number of them, so every round
// holds the same mix.
var rotation = map[string]int{
	scanRO:   len(scanQueries),
	fetchRO:  len(fetchTargets),
	updateWO: 1,
	mixedRW:  2,
}

// rounds is the number of equal rounds the timed phase is split into;
// throughput, latency and CPU cost are the median of the per-round values.
const rounds = 5

// config is everything a run depends on. The command line gives
// defaultConfig; the smoke test shrinks it.
type config struct {
	SF      float64 `json:"sf"`
	Seed    uint64  `json:"seed"`
	Seconds int     `json:"seconds"`
	// Ops is the primary-class op count of each workload's timed phase,
	// a multiple of rounds.
	Ops map[string]int `json:"ops"`
	// SeedCommits are applied in setup; with CkptRecords equal to it the
	// server's policy publishes the first checkpoint image exactly there.
	SeedCommits int `json:"seed_commits"`
	CkptRecords int `json:"ckpt_records"`
	// TailCommits is the WAL tail every write workload recovers.
	TailCommits    int `json:"tail_commits"`
	Setups         int `json:"setups"`
	RecoveryCycles int `json:"recovery_cycles"`
	// WriterRate is mixed_rw's open-loop commit rate per second.
	WriterRate int `json:"writer_rate"`
}

func defaultConfig(seed uint64, seconds int) config {
	c := config{
		SF: 0.2, Seed: seed, Seconds: seconds, Ops: map[string]int{},
		SeedCommits: 2000, CkptRecords: 2000, TailCommits: 3000,
		Setups: 2, RecoveryCycles: 5, WriterRate: 200,
	}
	for w, r := range opsPerSecond {
		unit := rounds * rotation[w]
		c.Ops[w] = max(1, r*seconds/unit) * unit
	}
	return c
}

// warmupOps is the fixed warm-up that ends setup: 5 % of the op count.
func (c config) warmupOps(w string) int { return (c.Ops[w] + 19) / 20 }

// serverFlags are the mxqd flags every workload runs under (-addr and
// -dir are added per process).
func (c config) serverFlags(ckptRecords int) []string {
	return []string{"-nosync", "-ckpt-records", fmt.Sprint(ckptRecords)}
}

// rng is a splitmix64 stream. Every input the benchmark generates comes
// from one of these, seeded from -seed and a per-stream constant, so one
// seed always gives the same document and the same op sequences.
type rng struct{ state uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{state: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Streams of the per-seed generator.
const (
	streamSeeding = 1 + iota
	streamUpdates
	streamWriter
	streamTail
	streamReads
	streamSample
)

const docName = "xmark"

// genDoc generates the XMark document for (sf, seed).
func genDoc(sf float64, seed uint64) (string, error) {
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(sf, seed).WriteTo(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// updOp is one XUpdate commit. Every commit leaves a marker — a value
// that names the commit's sequence number — readable at Probe; Want is
// what Probe must return while no later commit has written the same
// place, and "" once the commit's marker has been removed again.
type updOp struct {
	Kind  string // "text", "append", "remove" or "attr"
	XU    string
	Probe string
	Want  string
}

const xuOpen = `<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">`
const xuClose = `</xupdate:modifications>`

// updGen produces the seed-derived commit sequence. With textOnly it
// emits only the text-node update (seeding, the mixed_rw writer and the
// recovery tail); otherwise the update_wo mix: 60 % text update, 15 %
// bidder append, 15 % removal of a previously appended bidder, 10 %
// attribute set. Appends and removes balance, so the document keeps its
// size.
type updGen struct {
	r        *rng
	counts   xmark.Counts
	textOnly bool
	tag      string // distinguishes the markers of different streams
	seq      int
	// appended[k] holds the markers of the bidders appended to open
	// auction k and not yet removed, oldest first.
	appended map[int][]string
	open     []int // auctions with a non-empty appended stack
}

func newUpdGen(seed, stream uint64, sf float64, textOnly bool) *updGen {
	return &updGen{
		r: newRNG(seed, stream), counts: xmark.CountsFor(sf), textOnly: textOnly,
		tag: fmt.Sprintf("s%d-", stream), appended: map[int][]string{},
	}
}

func (g *updGen) next() updOp {
	g.seq++
	marker := fmt.Sprintf("%s%d", g.tag, g.seq)
	roll := 0
	if !g.textOnly {
		roll = g.r.intn(100)
	}
	switch {
	case roll < 60:
		return g.textUpdate(marker)
	case roll < 75 || len(g.open) == 0 && roll < 90:
		return g.appendBidder(marker)
	case roll < 90:
		return g.removeBidder()
	default:
		k := 1 + g.r.intn(g.counts.ClosedAuctions)
		sel := fmt.Sprintf("/site/closed_auctions/closed_auction[%d]/buyer/@person", k)
		return updOp{
			Kind:  "attr",
			XU:    fmt.Sprintf(`%s<xupdate:update select="%s">%s</xupdate:update>%s`, xuOpen, sel, marker, xuClose),
			Probe: "string(" + sel + ")", Want: marker,
		}
	}
}

// textUpdate rewrites one text node chosen over the whole document: a
// person's name (middle of the document) or an item's location (start).
func (g *updGen) textUpdate(marker string) updOp {
	var sel string
	if g.r.intn(2) == 0 {
		sel = fmt.Sprintf("/site/people/person[%d]/name/text()", 1+g.r.intn(g.counts.Persons))
	} else {
		ri := g.r.intn(len(xmark.Regions))
		sel = fmt.Sprintf("/site/regions/%s/item[%d]/location/text()", xmark.Regions[ri], 1+g.r.intn(g.counts.Items[ri]))
	}
	return updOp{
		Kind:  "text",
		XU:    fmt.Sprintf(`%s<xupdate:update select="%s">%s</xupdate:update>%s`, xuOpen, sel, marker, xuClose),
		Probe: sel, Want: marker,
	}
}

func bidderProbe(k int) string {
	return fmt.Sprintf("/site/open_auctions/open_auction[%d]/bidder[last()]/increase/text()", k)
}

func (g *updGen) appendBidder(marker string) updOp {
	k := 1 + g.r.intn(g.counts.OpenAuctions)
	if len(g.appended[k]) == 0 {
		g.open = append(g.open, k)
	}
	g.appended[k] = append(g.appended[k], marker)
	bidder := fmt.Sprintf(`<bidder><date>01/01/2001</date><time>12:00:00</time><personref person="person%d"/><increase>%s</increase></bidder>`,
		g.r.intn(g.counts.Persons), marker)
	return updOp{
		Kind:  "append",
		XU:    fmt.Sprintf(`%s<xupdate:append select="/site/open_auctions/open_auction[%d]">%s</xupdate:append>%s`, xuOpen, k, bidder, xuClose),
		Probe: bidderProbe(k), Want: marker,
	}
}

// removeBidder deletes the newest appended bidder of a seed-chosen
// auction that has one. What the probe must then show is the marker
// beneath it, or nothing the harness wrote.
func (g *updGen) removeBidder() updOp {
	i := g.r.intn(len(g.open))
	k := g.open[i]
	stack := g.appended[k][:len(g.appended[k])-1]
	g.appended[k] = stack
	want := ""
	if len(stack) > 0 {
		want = stack[len(stack)-1]
	} else {
		g.open[i] = g.open[len(g.open)-1]
		g.open = g.open[:len(g.open)-1]
	}
	return updOp{
		Kind:  "remove",
		XU:    fmt.Sprintf(`%s<xupdate:remove select="/site/open_auctions/open_auction[%d]/bidder[last()]"/>%s`, xuOpen, k, xuClose),
		Probe: bidderProbe(k), Want: want,
	}
}

func (g *updGen) take(n int) []updOp {
	ops := make([]updOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// model is what the acknowledged commits must have left behind: the
// marker expected at each probe. Commits are acknowledged in order on
// one connection, so applying each acknowledged op keeps it exact.
type model struct {
	want map[string]string
	// last is the probe of the newest acknowledged commit whose marker is
	// still in place ("" if a later commit removed it).
	last string
}

func newModel() *model { return &model{want: map[string]string{}} }

func (m *model) apply(op updOp) {
	if op.Want == "" {
		delete(m.want, op.Probe)
		if m.last == op.Probe {
			m.last = ""
		}
		return
	}
	m.want[op.Probe] = op.Want
	m.last = op.Probe
}

// sample returns up to n probes of the model in a seed-derived order.
func (m *model) sample(r *rng, n int) []string {
	probes := make([]string, 0, len(m.want))
	for p := range m.want {
		probes = append(probes, p)
	}
	// Map order is random; sort before the seeded draw.
	sort.Strings(probes)
	for i := 0; i < n && i < len(probes); i++ {
		j := i + r.intn(len(probes)-i)
		probes[i], probes[j] = probes[j], probes[i]
	}
	if len(probes) > n {
		probes = probes[:n]
	}
	return probes
}

// Query sets.

// scanQueries are whole-document descendant scans with one-item replies;
// %d takes a person id. The last two take the per-node fallback today.
var scanQueries = []string{
	`count(//keyword)`,
	`count(//item[payment])`,
	`count(//open_auction[bidder])`,
	`//person[@id="person%d"]/name/text()`,
	`count(//open_auction/bidder[last()])`,
	`count(//bidder/preceding-sibling::bidder[1])`,
}

// scanPlan is scan_ro's op sequence: n ops rotating over scanQueries,
// the person lookup cycling over 20 seed-chosen ids.
func scanPlan(c config, n int) []string {
	r := newRNG(c.Seed, streamReads)
	persons := xmark.CountsFor(c.SF).Persons
	ids := make([]int, 20)
	for i := range ids {
		ids[i] = r.intn(persons)
	}
	ops := make([]string, n)
	for i := range ops {
		q := scanQueries[i%len(scanQueries)]
		if i%len(scanQueries) == 3 {
			q = fmt.Sprintf(q, ids[(i/len(scanQueries))%len(ids)])
		}
		ops[i] = q
	}
	return ops
}

// fetchTarget is one bulk subtree fetch: the first N children of Path
// named Elem, N chosen per document so the serialized reply is closest
// to Bytes. Item and person sizes vary from seed to seed; fixing the
// reply size rather than the element count keeps the work per op the
// same on every seed.
type fetchTarget struct {
	Path  string
	Bytes int
}

var fetchTargets = []fetchTarget{
	{"/site/people/person", 200 << 10},
	{"/site/regions/europe/item", 280 << 10},
	{"/site/regions/namerica/item", 360 << 10},
}

func fetchQuery(path string, n int) string {
	return fmt.Sprintf("%s[position() <= %d]", path, n)
}

// rotate repeats the query set to n ops.
func rotate(queries []string, n int) []string {
	ops := make([]string, n)
	for i := range ops {
		ops[i] = queries[i%len(queries)]
	}
	return ops
}

// pointSpan is how many distinct positions mixed_rw's reader cycles over
// on each of its two paths: 400 query texts, more than a session's
// prepared-statement cache holds.
const pointSpan = 200

// pointPlan is mixed_rw's read sequence: point fetches alternating
// between a person and an open auction, the position cycling over
// pointSpan values from a seed-chosen base below 100 (a positional step
// costs more the further it counts, so the base stays in a narrow band).
// wantPrefix is what the reply must start with: element name and id do
// not change under the writer.
func pointPlan(c config, n int) (queries, wantPrefix []string) {
	counts := xmark.CountsFor(c.SF)
	span := min(pointSpan, counts.Persons, counts.OpenAuctions)
	base := newRNG(c.Seed, streamReads).intn(min(100, min(counts.Persons, counts.OpenAuctions)-span+1))
	queries = make([]string, n)
	wantPrefix = make([]string, n)
	for i := range queries {
		k := base + (i/2)%span + 1
		if i%2 == 0 {
			queries[i] = fmt.Sprintf("/site/people/person[%d]", k)
			wantPrefix[i] = fmt.Sprintf(`<person id="person%d">`, k-1)
		} else {
			queries[i] = fmt.Sprintf("/site/open_auctions/open_auction[%d]", k)
			wantPrefix[i] = fmt.Sprintf(`<open_auction id="open_auction%d">`, k-1)
		}
	}
	return queries, wantPrefix
}
