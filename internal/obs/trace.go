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
	// Trace identifies the request the span belongs to; zero when the
	// request ran without telemetry.
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

// Span is one timed, named region of work within a request (the root span
// is the request itself). A request's stages run one at a time (Request),
// so its spans are used from one goroutine at a time. All methods are
// nil-safe.
//
// A span is live when its request records to a sink (Live): it then goes to
// that sink as it ends, stamped with the request's trace ID, so a request's
// children arrive before its root. A request with no sink attached has a
// root span that is not live: it carries the request's stage sums for
// BeginStage, but Child returns nil and Set, SetStatus and End do nothing,
// so call sites that box attribute values guard them with Live. Span IDs come
// from a process-global counter, so spans of concurrent requests never
// collide in a shared sink.
type Span struct {
	// req is the request the span belongs to, whose sink it records to and
	// whose stage sums its stages feed.
	req    *Request
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
}

// Live reports whether the span records to a sink: false for a nil span and
// for every span of a request with no sink attached.
func (s *Span) Live() bool { return s != nil && s.req != nil && s.req.sink != nil }

// Child opens a sub-span of a live span; it returns nil under a span that is
// not live.
func (s *Span) Child(name string) *Span {
	if !s.Live() {
		return nil
	}
	return &Span{req: s.req, id: nextSpanID(), parent: s.id, name: name, start: time.Now()}
}

// Set attaches a key/value attribute and returns the span for chaining.
func (s *Span) Set(key string, value any) *Span {
	if s.Live() {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	return s
}

// SetStatus annotates the span with a "status" attribute derived from err
// (StatusOf) and returns the span for chaining. Nil-safe.
func (s *Span) SetStatus(err error) *Span {
	if !s.Live() {
		return s
	}
	return s.Set("status", StatusOf(err))
}

// End closes a child span, delivers it to the sink, adds its duration to the
// request's stage sums, and returns the duration; a span that is not live
// returns 0. The root span ends with its request (Request.Finish).
func (s *Span) End() time.Duration {
	if !s.Live() {
		return 0
	}
	d := time.Since(s.start)
	s.record(d)
	if r := s.req; s != &r.root {
		r.addStage(stageIndex(s.name), d)
	}
	return d
}

// record delivers the completed span, with duration d, to its request's sink.
func (s *Span) record(d time.Duration) {
	s.req.sink.Record(SpanRecord{
		Trace: s.req.trace.TraceID, ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Duration: d, Attrs: s.attrs,
	})
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
