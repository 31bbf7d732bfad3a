package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanRecord is the completed form of a span, as delivered to sinks.
type SpanRecord struct {
	// Trace identifies the request the span belongs to; zero when the span
	// was produced by a tracer with no trace identity (NewTracer).
	Trace TraceID `json:"trace_id,omitempty"`
	// ID is process-unique; Parent is 0 for root spans.
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	// Duration is the span's wall-clock length in nanoseconds.
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent Record calls.
type SpanSink interface {
	Record(SpanRecord)
}

// Tracer hands out hierarchical spans and forwards completed ones to its
// sink. A nil *Tracer is the disabled fast path: Start returns a nil *Span,
// and every span method on nil is a no-op with zero allocations. Span IDs
// come from a process-global counter, so spans from many tracers (one per
// request under telemetry) never collide in a shared sink.
type Tracer struct {
	sink  SpanSink
	trace TraceID
}

// NewTracer returns a tracer writing completed spans to sink, with no trace
// identity (spans carry a zero trace ID).
func NewTracer(sink SpanSink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// NewTraceTracer returns a tracer whose spans are all stamped with trace.
func NewTraceTracer(sink SpanSink, trace TraceID) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, trace: trace}
}

// Start opens a root span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, id: nextSpanID(), name: name, start: time.Now()}
}

// Span is one timed, named region of work. A span and its children must be
// used from a single goroutine; sibling spans may run on different
// goroutines. All methods are nil-safe.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
}

// Child opens a sub-span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, id: nextSpanID(), parent: s.id, name: name, start: time.Now()}
}

// Set attaches a key/value attribute and returns the span for chaining.
func (s *Span) Set(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// SetStatus annotates the span with a "status" attribute derived from err
// (StatusOf) and returns the span for chaining. Nil-safe.
func (s *Span) SetStatus(err error) *Span {
	if s == nil {
		return nil
	}
	return s.Set("status", StatusOf(err))
}

// End closes the span, delivers it to the sink, and returns its duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.t.sink.Record(SpanRecord{
		Trace: s.t.trace, ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Duration: d, Attrs: s.attrs,
	})
	return d
}

// LastRoot returns the most recently started root span (Parent == 0) in
// spans, and whether one exists.
func LastRoot(spans []SpanRecord) (SpanRecord, bool) {
	var best SpanRecord
	found := false
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		if !found || s.Start.After(best.Start) {
			best, found = s, true
		}
	}
	return best, found
}

// Subtree returns root's record followed by all its descendants found in
// spans, in depth-first start order.
func Subtree(spans []SpanRecord, root uint64) []SpanRecord {
	children := childIndex(spans)
	byID := make(map[uint64]SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out []SpanRecord
	var walk func(id uint64)
	walk = func(id uint64) {
		if rec, ok := byID[id]; ok {
			out = append(out, rec)
		}
		for _, c := range children[id] {
			walk(c.ID)
		}
	}
	walk(root)
	return out
}

// WriteTree renders spans as indented trees (one per root), children ordered
// by start time — the :trace view of cmd/saccs-chat.
func WriteTree(w io.Writer, spans []SpanRecord) {
	children := childIndex(spans)
	have := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		have[s.ID] = true
	}
	var walk func(rec SpanRecord, depth int)
	walk = func(rec SpanRecord, depth int) {
		fmt.Fprintf(w, "%*s%-*s %10s", 2*depth, "", 28-2*depth, rec.Name,
			rec.Duration.Round(time.Microsecond))
		for _, a := range rec.Attrs {
			fmt.Fprintf(w, "  %s=%v", a.Key, a.Value)
		}
		fmt.Fprintln(w)
		for _, c := range children[rec.ID] {
			walk(c, depth+1)
		}
	}
	for _, s := range spans {
		// Roots: true roots, plus spans whose parent is outside the slice.
		if s.Parent == 0 || !have[s.Parent] {
			walk(s, 0)
		}
	}
}

// childIndex groups spans by parent ID, each group sorted by start time.
func childIndex(spans []SpanRecord) map[uint64][]SpanRecord {
	children := map[uint64][]SpanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i].Start.Before(c[j].Start) })
	}
	return children
}
