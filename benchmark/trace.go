package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one op share Op; Parent is the span that caused this one
// (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was made.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The untraced run has no
// tracer at all: the workloads take their timestamps either way and hand
// them over only when one exists.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open starts a span that will have children; close ends it.
func (t *tracer) open(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

func (t *tracer) close(id int) {
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
}

// timed runs f as a child span of parent and returns how long it took.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, op, start, end)
	return end.Sub(start)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[p.ID] = p.dur() - time.Duration(covered)
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
