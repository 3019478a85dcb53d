package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run. Every operation is a
// root span (Parent 0) whose children are the calls into each layer;
// spans of one operation share Op. Class names the op class (scan,
// fetch, update, mixed, or a stage such as setup).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// Switched off, begin and end do nothing, which is how the untraced
// replay that tracing overhead is measured against runs the same code.
type tracer struct {
	on    bool
	t0    time.Time
	class string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Class: t.class,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if id != 0 {
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	}
}

// selfTimes returns, for each span, its duration minus the part its
// child spans cover. Children of one span never overlap here (each op
// runs on one goroutine), so the covered part is the sum of their
// durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent != 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// coverage is the share of the root spans' time that their child spans'
// self times account for: what is left is harness glue between stages.
func coverage(spans []span, class, root string) float64 {
	self := selfTimes(spans)
	isRoot := make(map[int]bool)
	var rootNS, stageNS int64
	for _, s := range spans {
		if s.Class == class && s.Name == root {
			isRoot[s.ID] = true
			rootNS += s.dur()
		}
	}
	for i, s := range spans {
		// Walk up to the root span this stage belongs to.
		p := s.Parent
		for p != 0 && !isRoot[p] {
			p = spans[p-1].Parent
		}
		if p != 0 {
			stageNS += self[i]
		}
	}
	if rootNS == 0 {
		return 0
	}
	return float64(stageNS) / float64(rootNS)
}

// durations collects the durations (ns) of the class's spans with the
// given name.
func durations(spans []span, class, name string) []float64 {
	var d []float64
	for _, s := range spans {
		if s.Class == class && s.Name == name {
			d = append(d, float64(s.dur()))
		}
	}
	return d
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
