// Package obs is the runtime observability subsystem: per-request span trees
// delivered to a pluggable sink (the generic in-memory Ring serves spans and
// wide events alike); a registry of atomic counters, gauges and one
// log-linear latency Histogram type, exported to Prometheus as
// p50/p90/p99/p999 summaries; request-scoped telemetry (wide
// events, the slow-query log, readiness); and ObserverMux, which serves all
// of it plus /debug/pprof over net/http.
//
// The package is stdlib-only and designed around a nil-safe no-op fast path:
// a nil *Observer, *Request, *Span, or any nil instrument accepts every call
// as a cheap no-op, so instrumented code needs no conditionals beyond an
// optional `if x.obs != nil` guard where even a time.Now() would be too much.
package obs

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Observer bundles the halves of the subsystem — a metrics registry, an
// (optionally attached) span sink, and (optionally attached) request-scoped
// telemetry — into the single handle instrumented components hold. Metrics
// is fixed at construction; the sink and telemetry may be swapped at
// runtime (atomically, so concurrent queries may race with
// enabling/disabling either).
type Observer struct {
	Metrics *Registry
	sink    atomic.Pointer[SpanSink]
	tel     atomic.Pointer[Telemetry]
}

// NewObserver returns an observer with a fresh registry and no sink.
func NewObserver() *Observer {
	return &Observer{Metrics: NewRegistry()}
}

// SetTelemetry attaches (or, with nil, detaches) request-scoped telemetry.
// In-flight requests keep the telemetry they started under.
func (o *Observer) SetTelemetry(t *Telemetry) {
	if o == nil {
		return
	}
	o.tel.Store(t)
}

// Telemetry returns the currently attached telemetry, possibly nil.
func (o *Observer) Telemetry() *Telemetry {
	if o == nil {
		return nil
	}
	return o.tel.Load()
}

// MarkReady flips the health state to ready; the index calls this on every
// snapshot publication, so readiness follows "a generation has been
// published". Nil-safe, no-op without telemetry.
func (o *Observer) MarkReady() {
	o.Telemetry().Health().MarkReady()
}

// Snapshot copies the registry's current state and, when telemetry is
// attached, folds in the slow-query log.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return (*Registry)(nil).Snapshot()
	}
	s := o.Metrics.Snapshot()
	if tel := o.Telemetry(); tel != nil {
		s.Slow = tel.SlowQueries()
	}
	return s
}

// SetSink attaches (or, with nil, detaches) the sink that receives every
// request's spans. In-flight requests keep the sink they started with.
func (o *Observer) SetSink(sink SpanSink) {
	if o == nil {
		return
	}
	if sink == nil {
		o.sink.Store(nil)
		return
	}
	o.sink.Store(&sink)
}

// loadSink returns the currently attached span sink, possibly nil.
func (o *Observer) loadSink() SpanSink {
	if o == nil {
		return nil
	}
	if p := o.sink.Load(); p != nil {
		return *p
	}
	return nil
}

// Counter returns the named counter from the registry (nil-safe).
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge from the registry (nil-safe).
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram from the registry (nil-safe).
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// Stage times one named pipeline stage: a child span under parent (when
// parent is live), a latency histogram "stage.<name>" (when metrics are on),
// and the stage's entry in the wide event of the request parent belongs to.
// The zero Stage is a no-op, so BeginStage/End can wrap stages
// unconditionally.
type Stage struct {
	// span is the live child span or, under a parent that is not live, the
	// parent itself, so that sub-stages still reach the request (span.req).
	span *Span
	hist *Histogram
	// idx is the stage's position in StageNames, -1 outside a request.
	idx    int
	cached bool
	start  time.Time
}

// BeginStage opens a stage. Either o or parent (or both) may be nil.
func BeginStage(o *Observer, parent *Span, name string) Stage {
	st := Stage{span: parent, idx: -1}
	if parent != nil && parent.req != nil {
		st.idx = stageIndex(name)
	}
	if parent.Live() {
		st.span = parent.Child(name)
	}
	if o != nil && o.Metrics != nil {
		st.hist = o.Metrics.member(&o.Metrics.stages, name)
	}
	if st.span.Live() || st.hist != nil || st.idx >= 0 {
		st.start = time.Now()
	}
	return st
}

// Span exposes the stage's span so sub-stages can attach to it. Under a
// parent that is not live it is that parent, so box attribute values for it
// only behind a Live check.
func (st Stage) Span() *Span { return st.span }

// Cached marks the stage as answered from a cache: a live span gets the
// attribute cached=1, and the request's wide event counts a cached
// tagger.decode stage as a cache hit (an unmarked one as a miss).
func (st *Stage) Cached() {
	st.cached = true
	st.span.Set("cached", 1)
}

// End closes the stage's span and records its latency. A live span adds
// itself to the request's stage sums as it ends; otherwise End adds the
// stage's duration directly.
func (st Stage) End() {
	live := st.span.Live()
	if !live && st.hist == nil && st.idx < 0 {
		return
	}
	d := time.Since(st.start)
	if live {
		st.span.End()
	} else if st.idx >= 0 {
		st.span.req.addStage(st.idx, d)
	}
	if st.cached && st.idx == decodeStage {
		st.span.req.hits++
	}
	st.hist.Observe(d)
}

// EndErr is End with an outcome: the stage's span is annotated with the
// status derived from err (see StatusOf) before it closes. Use it on
// context-aware stages so cancelled and deadline-expired work is visible in
// traces.
func (st Stage) EndErr(err error) {
	st.span.SetStatus(err)
	st.End()
}

// Span status values attached by SetStatus under the "status" attribute.
const (
	StatusOK        = "ok"
	StatusCancelled = "cancelled"
	StatusDeadline  = "deadline"
	StatusError     = "error"
)

// StatusOf classifies an error for span annotation: nil is "ok", a context
// cancellation "cancelled", an expired deadline "deadline", anything else
// "error". Wrapped context errors (errors.Is) classify like the originals.
func StatusOf(err error) string {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, context.Canceled):
		return StatusCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	default:
		return StatusError
	}
}
