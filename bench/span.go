package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, made from the bench's own files around
// the layer's exported functions. Parent is the span that was open when this
// one began (0 for a root); times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It serves one goroutine:
// the traced run has one client. A nil tracer records nothing, so the same
// code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// spanStat sums the spans of one name.
type spanStat struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // total minus the time the spans' children cover
}

// selfTimes folds spans by name. A span's self time is its duration minus the
// part of its interval its direct children cover; children of one parent never
// overlap here because one goroutine records them in order.
func selfTimes(spans []span) map[string]spanStat {
	covered := make([]int64, len(spans)+1)
	for _, s := range spans {
		covered[s.Parent] += s.EndNs - s.StartNs
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.count++
		st.total += time.Duration(s.EndNs - s.StartNs)
		st.self += time.Duration(s.EndNs - s.StartNs - covered[s.ID])
		out[s.Name] = st
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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
