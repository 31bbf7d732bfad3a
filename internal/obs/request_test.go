package obs

import (
	"context"
	"slices"
	"testing"
	"time"

	"saccs/internal/race"
)

// sinklessRequest runs one request shaped like a warm query on o: parse, a
// cached tagger.decode, an uncached one, and rank with a nested
// index.resolve.
func sinklessRequest(o *Observer) {
	_, req := o.StartRequest(context.Background(), "query")
	root := req.Root()
	st := BeginStage(o, root, "parse")
	st.End()
	st = BeginStage(o, root, "tagger.decode")
	st.Cached()
	st.End()
	st = BeginStage(o, root, "tagger.decode")
	st.End()
	st = BeginStage(o, root, "rank")
	sub := BeginStage(nil, st.Span(), "index.resolve")
	sub.End()
	st.End()
	req.Finish(nil)
}

// TestRequestWithoutSinkStages checks that a request with telemetry on and no
// trace sink still fills its wide event: every stage it ran, nested ones
// included, under its StageNames key, and the cache outcomes of its
// tagger.decode stages.
func TestRequestWithoutSinkStages(t *testing.T) {
	o := NewObserver()
	tel := NewTelemetry(TelemetryConfig{Metrics: o.Metrics})
	defer tel.Close()
	o.SetTelemetry(tel)

	_, req := o.StartRequest(context.Background(), "query")
	if req.Root().Live() {
		t.Fatal("root span of a request with no sink is live")
	}
	st := BeginStage(o, req.Root(), "parse")
	if st.Span().Child("x") != nil {
		t.Fatal("a span that is not live opened a child")
	}
	time.Sleep(time.Millisecond)
	st.End()
	req.Finish(nil)
	if ev := tel.Events()[0]; ev.Stage["parse"] < time.Millisecond || ev.Duration < ev.Stage["parse"] {
		t.Fatalf("stage sums: %v, duration %v", ev.Stage, ev.Duration)
	}

	sinklessRequest(o)
	ev := tel.Events()[1]
	keys := make([]string, 0, len(ev.Stage))
	for k := range ev.Stage {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"index.resolve", "parse", "rank", "tagger.decode"}; !slices.Equal(keys, want) {
		t.Fatalf("stage keys %v, want %v", keys, want)
	}
	if ev.CacheHits != 1 || ev.CacheMisses != 1 {
		t.Fatalf("cache hits/misses %d/%d, want 1/1", ev.CacheHits, ev.CacheMisses)
	}
	if ev.Root == 0 || ev.Trace.IsZero() {
		t.Fatalf("event identity: %+v", ev)
	}
}

// TestRequestWithoutSinkAllocs bounds one request with telemetry on and no
// trace sink: StartRequest, five stages and Finish allocate the Request, the
// context carrying its trace, and the wide event's stage map — no tracer,
// span buffer, span or attribute.
func TestRequestWithoutSinkAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	o := NewObserver()
	tel := NewTelemetry(TelemetryConfig{Metrics: o.Metrics})
	defer tel.Close()
	o.SetTelemetry(tel)
	sinklessRequest(o)
	if allocs := testing.AllocsPerRun(200, func() { sinklessRequest(o) }); allocs > 4 {
		t.Fatalf("a request with no sink allocates %v times, want <= 4", allocs)
	}
}

// Trace returns the request's trace identity (zero without telemetry).
func (r *Request) Trace() Trace {
	if r == nil {
		return Trace{}
	}
	return r.trace
}
