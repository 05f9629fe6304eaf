package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the driver made into a layer. Spans of one
// operation share op; parent is the index of the enclosing span in the
// tracer's buffer, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	limit int

	mu    sync.Mutex
	spans []span
}

func newTracer(limit int) *tracer { return &tracer{t0: time.Now(), limit: limit} }

// begin opens a span and returns its handle (-1 when nothing is recorded).
func (t *tracer) begin(name string, op uint64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// room reports whether n more spans fit, so a replay is recorded whole
// or not at all.
func (t *tracer) room(n int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)+n <= t.limit
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// breakdown is the per-layer split of a set of traced operations.
type breakdown struct {
	ops         int
	opNs        float64            // summed root span time
	self        map[string]float64 // summed self time per span name
	count       map[string]int     // spans per name
	unaccounted float64            // summed root self time
}

// analyse computes each span's self time — its duration minus the part of
// it that its children cover — and sums them per name over the roots named
// root. A root's own self time is the part of the operation no layer span
// covers.
func (t *tracer) analyse(root string) breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := breakdown{self: map[string]float64{}, count: map[string]int{}}
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var self func(i int) float64
	self = func(i int) float64 {
		s := t.spans[i]
		d := float64(s.End - s.Start)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			c := t.spans[k]
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += float64(hi - lo)
				edge = hi
			}
			sd := self(k)
			b.self[c.Name] += sd
			b.count[c.Name]++
		}
		return d - covered
	}
	for i, s := range t.spans {
		if s.Parent != -1 || s.Name != root || s.End == 0 {
			continue
		}
		b.ops++
		b.opNs += float64(s.End - s.Start)
		b.unaccounted += self(i)
	}
	return b
}

// meanSelfNs is the mean self time of one span name, in ns.
func (b breakdown) meanSelfNs(name string) float64 {
	if b.count[name] == 0 {
		return 0
	}
	return b.self[name] / float64(b.count[name])
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

// finishTrace records the run's error rate and writes the spans out.
func finishTrace(tr *tracer, path string, res *result) error {
	res.set("gen.error_rate", float64(res.failed)/float64(max(res.attempted, 1)), "frac", res.attempted)
	return tr.write(path)
}
