package obs

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Event is one canonical wide event: everything worth knowing about a single
// request, emitted once when the request finishes. One event per request —
// instead of correlating log lines — is what makes "which requests were slow
// and why" answerable after the fact.
type Event struct {
	Time time.Time `json:"time"`
	// Kind is the request type: "query", "extract", "reindex", or "append".
	Kind  string  `json:"kind"`
	Trace TraceID `json:"trace_id"`
	Root  SpanID  `json:"span_id"`
	// Duration is the request's end-to-end wall-clock time.
	Duration time.Duration `json:"duration_ns"`
	// Status is a StatusOf value: ok, cancelled, deadline, or error.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Stage maps pipeline stage span names to their summed durations.
	Stage map[string]time.Duration `json:"stage_ns,omitempty"`
	// Generation is the index snapshot generation the request read.
	Generation uint64 `json:"generation,omitempty"`
	// CacheHits/CacheMisses count extraction-cache outcomes within the
	// request (derived from tagger.decode spans' cached attribute).
	CacheHits   int `json:"cache_hits,omitempty"`
	CacheMisses int `json:"cache_misses,omitempty"`
	// Tags is the number of subjective tags extracted; Unknown the number of
	// unknown-tag warnings; Results the ranked result count.
	Tags    int `json:"tags,omitempty"`
	Unknown int `json:"unknown,omitempty"`
	Results int `json:"results,omitempty"`
	// UtteranceLen is the query utterance length in bytes (the text itself is
	// never recorded).
	UtteranceLen int `json:"utterance_len,omitempty"`
	// ThetaFilter/TopK record per-request option overrides, when present.
	ThetaFilter *float64 `json:"theta_filter,omitempty"`
	TopK        *int     `json:"top_k,omitempty"`
	// Retained reports whether the full span tree was kept (tail sampling);
	// RetainReason is why: "error", "slow", "head", or "all".
	Retained     bool   `json:"retained,omitempty"`
	RetainReason string `json:"retain_reason,omitempty"`
}

// StageNames is the wide-event stage schema: every pipeline stage span name
// that may appear as an Event.Stage key. The obs-lint test asserts the
// pipeline emits no stage outside this list, so an uninstrumented stage is a
// CI failure rather than a silent telemetry gap.
var StageNames = []string{
	"parse",
	"tagger.decode",
	"pairing.pairs",
	"objective",
	"rank",
	"index.resolve",
	"index.add_tag",
	"index.build",
	"extract",
	"history.drain",
}

// spanBuffer accumulates a request's spans until its tail-sampling fate is
// decided at Finish.
type spanBuffer struct {
	mu    sync.Mutex
	spans []SpanRecord
}

func (b *spanBuffer) Record(rec SpanRecord) {
	b.mu.Lock()
	b.spans = append(b.spans, rec)
	b.mu.Unlock()
}

func (b *spanBuffer) take() []SpanRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.spans
	b.spans = nil
	return s
}

// Fixed telemetry sizes and periods.
const (
	// EventRingSize bounds the in-memory wide-event ring.
	EventRingSize = 256
	// slowLogSize bounds the worst-K slow-query log.
	slowLogSize = 64
	// sloObjective is the target good-request fraction the error-budget
	// burn gauge is scaled by.
	sloObjective = 0.99
	// runtimeEvery is the period of the runtime gauge sampler (goroutines,
	// heap, GC); the gauges are also refreshed when telemetry starts.
	runtimeEvery = 10 * time.Second
)

// TelemetryConfig configures NewTelemetry. Zero values disable the sampling
// and SLO knobs.
type TelemetryConfig struct {
	// Metrics is the registry request-latency histograms and SLO counters
	// register in. A nil Metrics gets a fresh registry.
	Metrics *Registry
	// HeadSampleN retains the full span tree of every Nth request regardless
	// of latency (1 = every request, 0 = no head sampling).
	HeadSampleN int
	// SlowThreshold marks requests at or above this duration slow: their
	// span trees are retained and they enter the slow-query log. Zero
	// disables the fixed threshold (the rolling-p99 rule still applies).
	SlowThreshold time.Duration
	// SLOTarget is the query latency objective; requests at or under it are
	// good, above it bad. Zero disables SLO accounting.
	SLOTarget time.Duration
}

// Telemetry is the request-scoped half of the Observer: wide events, tail
// sampling, the slow-query log, SLO accounting, request-latency histograms,
// readiness, and runtime gauges. Attach with Observer.SetTelemetry.
type Telemetry struct {
	reg     *Registry
	events  *Ring[Event]
	sampler *Sampler
	slow    *SlowLog
	slo     *SLO
	health  *Health

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewTelemetry builds a telemetry pipeline from cfg. With no sampling knobs
// set (HeadSampleN, SlowThreshold both zero) span retention is pass-through:
// every request's spans reach the attached trace sink, preserving the
// pre-telemetry tracing behavior.
func NewTelemetry(cfg TelemetryConfig) *Telemetry {
	reg := cfg.Metrics
	if reg == nil {
		reg = NewRegistry()
	}
	t := &Telemetry{
		reg:    reg,
		events: NewRing[Event](EventRingSize),
		slow:   NewSlowLog(slowLogSize),
		health: NewHealth(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if cfg.HeadSampleN > 0 || cfg.SlowThreshold > 0 {
		t.sampler = &Sampler{
			HeadN: cfg.HeadSampleN,
			Slow:  cfg.SlowThreshold,
			hist:  reg.member(&reg.latencies, "query"),
		}
	}
	if cfg.SLOTarget > 0 {
		t.slo = NewSLO(reg, cfg.SLOTarget)
	}
	sampleRuntime(reg)
	go t.runtimeLoop()
	return t
}

// Events returns the buffered wide events, oldest first.
func (t *Telemetry) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events.All()
}

// SlowQueries returns the worst-K slow/errored requests, slowest first.
func (t *Telemetry) SlowQueries() []Event {
	if t == nil {
		return nil
	}
	return t.slow.Worst()
}

// Health returns the readiness state machine.
func (t *Telemetry) Health() *Health {
	if t == nil {
		return nil
	}
	return t.health
}

// Close marks the service shutting down (readyz turns 503) and stops the
// runtime gauge sampler. Safe to call more than once.
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	t.once.Do(func() {
		t.health.MarkShutdown()
		close(t.stop)
	})
	<-t.done
}

func (t *Telemetry) runtimeLoop() {
	defer close(t.done)
	tick := time.NewTicker(runtimeEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			sampleRuntime(t.reg)
		case <-t.stop:
			return
		}
	}
}

// sampleRuntime refreshes the runtime health gauges.
func sampleRuntime(reg *Registry) {
	if reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("runtime.goroutines").Set(float64(runtime.NumGoroutine()))
	reg.Gauge("runtime.heap.alloc.bytes").Set(float64(ms.HeapAlloc))
	reg.Gauge("runtime.heap.objects").Set(float64(ms.HeapObjects))
	reg.Gauge("runtime.gc.count").Set(float64(ms.NumGC))
	reg.Gauge("runtime.gc.pause.last.seconds").Set(time.Duration(ms.PauseNs[(ms.NumGC+255)%256]).Seconds())
}

// Request is one in-flight instrumented request. Callers fill the exported
// Ev fields as facts become known (generation, tag counts, option overrides)
// and call Finish exactly once; Finish assembles the wide event, applies tail
// sampling, and feeds the latency/SLO accounting. A degenerate Request (from
// a nil or telemetry-less Observer) accepts all of this as a no-op, so
// instrumented code needs no nil checks.
type Request struct {
	// Ev is the wide event under construction. Time, Kind, Trace, Root,
	// Duration, Status, Error, Stage, CacheHits/Misses, Retained and
	// RetainReason are filled by StartRequest/Finish; the caller sets the
	// rest.
	Ev Event

	tel   *Telemetry
	o     *Observer
	root  *Span
	buf   *spanBuffer
	trace Trace
	head  bool
	done  bool
}

// Root returns the request's root span (nil when tracing is off), for
// attaching stage children.
func (r *Request) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Trace returns the request's trace identity (zero without telemetry).
func (r *Request) Trace() Trace {
	if r == nil {
		return Trace{}
	}
	return r.trace
}

// StartRequest opens an instrumented request of the given kind. It always
// returns a usable *Request (never nil) and a context carrying the request's
// trace identity. Without telemetry it degrades to the pre-telemetry
// behavior: a root span on the attached tracer and no wide event. With
// telemetry, the request joins the trace in ctx if present (propagation) or
// mints a fresh one, and its spans are buffered until Finish decides their
// retention.
func (o *Observer) StartRequest(ctx context.Context, kind string) (context.Context, *Request) {
	tel := o.Telemetry()
	if tel == nil {
		return ctx, &Request{o: o, root: o.StartSpan(kind)}
	}
	tr, ok := TraceFrom(ctx)
	if !ok || !tr.Valid() {
		tr = NewTrace()
	}
	head := tr.Sampled
	if !head && tel.sampler.SampleHead() {
		head = true
	}
	buf := &spanBuffer{}
	root := NewTraceTracer(buf, tr.TraceID).Start(kind)
	req := &Request{
		tel:   tel,
		o:     o,
		root:  root,
		buf:   buf,
		trace: Trace{TraceID: tr.TraceID, SpanID: SpanID(root.id), Sampled: head},
		head:  head,
	}
	req.Ev.Time = root.start
	req.Ev.Kind = kind
	req.Ev.Trace = tr.TraceID
	req.Ev.Root = SpanID(root.id)
	return ContextWithTrace(ctx, req.trace), req
}

// Finish completes the request: closes the root span, assembles the wide
// event (per-stage durations and cache hit/miss aggregated from the span
// buffer), decides span-tree retention, records the event into the ring,
// and feeds the request-latency histogram, SLO accounting, and slow-query
// log. Nil-safe and idempotent.
func (r *Request) Finish(err error) {
	if r == nil || r.done {
		return
	}
	r.done = true
	if r.tel == nil {
		// Degenerate request: just close the root span (pre-telemetry path).
		if err != nil {
			r.root.SetStatus(err)
		}
		r.root.End()
		return
	}
	if err != nil {
		r.root.SetStatus(err)
	}
	d := r.root.End()
	spans := r.buf.take()

	ev := &r.Ev
	ev.Duration = d
	ev.Status = StatusOf(err)
	if err != nil {
		ev.Error = err.Error()
	}
	ev.Stage = make(map[string]time.Duration, 8)
	rootID := r.root.id
	for _, s := range spans {
		if s.ID == rootID {
			continue
		}
		ev.Stage[s.Name] += s.Duration
		if s.Name == "tagger.decode" {
			hit := false
			for _, a := range s.Attrs {
				if a.Key == "cached" {
					if v, ok := a.Value.(int); ok && v == 1 {
						hit = true
					}
					break
				}
			}
			if hit {
				ev.CacheHits++
			} else {
				ev.CacheMisses++
			}
		}
	}

	retained, reason := r.tel.sampler.Decide(ev.Status, d, r.head)
	ev.Retained, ev.RetainReason = retained, reason
	if retained {
		if sink := sinkOf(r.o.Tracer()); sink != nil {
			for _, s := range spans {
				sink.Record(s)
			}
		}
	}

	r.tel.events.Record(*ev)
	r.tel.reg.member(&r.tel.reg.latencies, ev.Kind).Observe(d)
	if ev.Kind == "query" {
		r.tel.slo.Record(d, ev.Status)
		if ev.Status != StatusOK || r.tel.sampler.IsSlow(d) {
			r.tel.slow.Insert(*ev)
		}
	} else if ev.Status != StatusOK {
		r.tel.slow.Insert(*ev)
	}
}

// sinkOf exposes a tracer's sink for span-tree flush at retention time.
func sinkOf(t *Tracer) SpanSink {
	if t == nil {
		return nil
	}
	return t.sink
}
