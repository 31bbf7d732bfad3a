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
	// request: tagger.decode stages marked Stage.Cached, and those not.
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
}

// StageNames is the wide-event stage schema: every pipeline stage span name
// that may appear as an Event.Stage key. The obs-lint test asserts the
// pipeline emits no stage outside this list, so an uninstrumented stage is a
// CI failure rather than a silent telemetry gap. A request sums its stages in
// fixed arrays indexed by position in this list; a stage named outside it is
// timed by its histogram and span but has no wide-event entry.
var StageNames = stageNames[:]

var stageNames = [...]string{
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

// decodeStage is the position of the stage whose cache outcomes the wide
// event counts.
var decodeStage = stageIndex("tagger.decode")

// stageIndex returns name's position in StageNames, or -1.
func stageIndex(name string) int {
	for i, n := range stageNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Fixed telemetry sizes and periods.
const (
	// EventRingSize bounds the in-memory wide-event ring.
	EventRingSize = 256
	// slowLogSize bounds the worst-K slow-query log.
	slowLogSize = 64
	// runtimeEvery is the period of the runtime gauge sampler (goroutines,
	// heap, GC); the gauges are also refreshed when telemetry starts.
	runtimeEvery = 10 * time.Second
)

// TelemetryConfig configures NewTelemetry.
type TelemetryConfig struct {
	// Metrics is the registry the request-latency histograms register in. A
	// nil Metrics gets a fresh registry.
	Metrics *Registry
	// SlowThreshold arms the slow-query log's latency rule (slowRule): a
	// query at or above it, or slower than the rolling p99 of
	// request.latency.query, enters the log. Zero logs errored requests
	// only.
	SlowThreshold time.Duration
}

// Telemetry is the request-scoped half of the Observer: wide events, the
// slow-query log, request-latency histograms, readiness, and runtime
// gauges. Attach with Observer.SetTelemetry.
type Telemetry struct {
	reg    *Registry
	events *Ring[Event]
	slow   *SlowLog
	rule   slowRule // the slow log's latency rule
	health *Health

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewTelemetry builds a telemetry pipeline from cfg and starts its runtime
// gauge sampler; Close stops it.
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
	if cfg.SlowThreshold > 0 {
		t.rule = slowRule{threshold: cfg.SlowThreshold, p99: reg.member(&reg.latencies, "query")}
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
// and call Finish exactly once; Finish assembles the wide event and feeds the
// latency accounting and the slow-query log. A degenerate Request (from a
// nil or telemetry-less Observer) accepts all of this as a no-op, so
// instrumented code needs no nil checks.
//
// The request's stages (BeginStage under Root) run one at a time: they share
// the request's stage sums, which are plain arrays indexed by position in
// StageNames.
type Request struct {
	// Ev is the wide event under construction. Time, Kind, Trace, Root,
	// Duration, Status, Error, Stage and CacheHits/Misses are filled by
	// StartRequest/Finish; the caller sets the rest.
	Ev Event

	tel *Telemetry
	// sink is the span sink attached when the request started, nil for none;
	// with one, every span of the request is live.
	sink  SpanSink
	root  Span
	trace Trace
	done  bool
	// hits counts the tagger.decode stages marked Cached; stage and runs are
	// the summed duration and the run count of each stage in StageNames.
	hits  int32
	stage [len(stageNames)]time.Duration
	runs  [len(stageNames)]int32
}

// Root returns the request's root span, for attaching stages. It is live
// only when a sink was attached when the request started.
func (r *Request) Root() *Span {
	if r == nil {
		return nil
	}
	return &r.root
}

// addStage adds one run of stage i, lasting d, to the request's stage sums.
func (r *Request) addStage(i int, d time.Duration) {
	if i >= 0 {
		r.stage[i] += d
		r.runs[i]++
	}
}

// StartRequest opens an instrumented request of the given kind. It always
// returns a usable *Request (never nil) and a context carrying the request's
// trace identity. The request captures the sink attached now: with one,
// each of its spans goes to that sink as it ends. Without telemetry there is
// no wide event and no trace identity. With telemetry, the request joins the
// trace in ctx if present (propagation, keeping the caller's sampled flag)
// or mints a fresh one, and its stage durations go into the request itself,
// sink or no sink.
func (o *Observer) StartRequest(ctx context.Context, kind string) (context.Context, *Request) {
	req := &Request{tel: o.Telemetry(), sink: o.loadSink()}
	req.root = Span{req: req, id: nextSpanID(), name: kind, start: time.Now()}
	if req.tel == nil {
		return ctx, req
	}
	tr, ok := TraceFrom(ctx)
	if !ok || !tr.Valid() {
		tr = NewTrace()
	}
	req.trace = Trace{TraceID: tr.TraceID, SpanID: SpanID(req.root.id), Sampled: tr.Sampled}
	req.Ev.Time = req.root.start
	req.Ev.Kind = kind
	req.Ev.Trace = tr.TraceID
	req.Ev.Root = SpanID(req.root.id)
	return context.WithValue(ctx, traceKey{}, &req.trace), req
}

// Finish completes the request: delivers the root span to the request's
// sink (after its children), assembles the wide event (per-stage durations
// and cache hit/miss counts from the request's stage sums), records the
// event into the ring, and feeds the request-latency histogram and the
// slow-query log. Nil-safe and idempotent.
func (r *Request) Finish(err error) {
	if r == nil || r.done {
		return
	}
	r.done = true
	d := time.Since(r.root.start)
	if r.root.Live() {
		if err != nil {
			r.root.SetStatus(err)
		}
		r.root.record(d)
	}
	if r.tel == nil {
		return
	}

	ev := &r.Ev
	ev.Duration = d
	ev.Status = StatusOf(err)
	if err != nil {
		ev.Error = err.Error()
	}
	n := 0
	for _, runs := range r.runs {
		if runs > 0 {
			n++
		}
	}
	if n > 0 {
		ev.Stage = make(map[string]time.Duration, n)
		for i, runs := range r.runs {
			if runs > 0 {
				ev.Stage[stageNames[i]] = r.stage[i]
			}
		}
	}
	ev.CacheHits = int(r.hits)
	ev.CacheMisses = int(r.runs[decodeStage] - r.hits)

	r.tel.events.Record(*ev)
	r.tel.reg.member(&r.tel.reg.latencies, ev.Kind).Observe(d)
	if ev.Status != StatusOK || (ev.Kind == "query" && r.tel.rule.slow(d)) {
		r.tel.slow.Insert(*ev)
	}
}
