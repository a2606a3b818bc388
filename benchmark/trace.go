package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the span
// that caused it (0 for a root) and Op groups the spans of one operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs share the traced runs' code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve hands out a span ID before the span ends, so children recorded
// meanwhile can name it as their parent.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under an ID from reserve.
func (t *tracer) record(id, parent, op int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// leaf records a span that has no children.
func (t *tracer) leaf(parent, op int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(t.reserve(), parent, op, name, start, end)
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimeTable renders selfTimes of the recorded spans, busiest first.
func (t *tracer) selfTimeTable() []string {
	t.mu.Lock()
	byName := selfTimes(t.spans)
	t.mu.Unlock()
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := byName[names[i]].Self, byName[names[j]].Self; a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	out := []string{fmt.Sprintf("%-34s %8s %12s %12s", "span", "count", "total ms", "self ms")}
	for _, name := range names {
		lt := byName[name]
		out = append(out, fmt.Sprintf("%-34s %8d %12.3f %12.3f", name, lt.Count, ms(lt.Total), ms(lt.Self)))
	}
	return out
}

// layerTime is what one span name cost across a trace.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part child spans cover
}

// selfTimes attributes every span's duration to its name, and its self time
// — the duration minus the union of its children's intervals clipped to the
// span, so overlapping children (two goroutines under one parent) are not
// subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = lt
	}
	return out
}
