package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestEventRingConcurrentWraparound(t *testing.T) {
	const capacity, workers, per = 16, 8, 500
	r := NewRing[Event](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Event{Kind: "query", Results: w*per + i})
			}
		}(w)
	}
	// Concurrent readers must always see a consistent ring: at most capacity
	// events, each a value some writer actually produced.
	stop := make(chan struct{})
	var readErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := r.All()
			if len(evs) > capacity {
				readErr = fmt.Errorf("ring returned %d events, capacity %d", len(evs), capacity)
				return
			}
			for _, ev := range evs {
				if ev.Kind != "query" || ev.Results < 0 || ev.Results >= workers*per {
					readErr = fmt.Errorf("torn event: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	evs := r.All()
	if len(evs) != capacity {
		t.Fatalf("after %d writes the ring holds %d events, want %d", workers*per, len(evs), capacity)
	}
}

// TestJSONLEventSink round-trips wide events through the generic JSONL sink.
func TestJSONLEventSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL[Event](&buf)
	tr := NewTraceID()
	sink.Record(Event{Kind: "query", Trace: tr, Duration: time.Millisecond, Status: StatusOK})
	sink.Record(Event{Kind: "reindex", Status: StatusError, Error: "boom"})

	sc := bufio.NewScanner(&buf)
	var events []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("%d lines, want 2", len(events))
	}
	if events[0].Trace != tr || events[0].Duration != time.Millisecond {
		t.Fatalf("event 0 round trip: %+v", events[0])
	}
	if events[1].Error != "boom" {
		t.Fatalf("event 1 round trip: %+v", events[1])
	}
}

// newTestObserver builds an observer with a ring trace sink and telemetry
// configured by cfg; the caller owns Close via the returned telemetry.
func newTestObserver(cfg TelemetryConfig) (*Observer, *Ring[SpanRecord], *Telemetry) {
	o := NewObserver()
	ring := NewRing[SpanRecord](256)
	o.SetSink(ring)
	if cfg.Metrics == nil {
		cfg.Metrics = o.Metrics
	}
	tel := NewTelemetry(cfg)
	o.SetTelemetry(tel)
	return o, ring, tel
}

func TestRequestWideEventAssembly(t *testing.T) {
	o, ring, tel := newTestObserver(TelemetryConfig{})
	defer tel.Close()

	ctx, req := o.StartRequest(context.Background(), "query")
	tr, ok := TraceFrom(ctx)
	// A minted trace is not sampled: only a caller's traceparent sets the flag.
	if !ok || !tr.Valid() || tr.Sampled {
		t.Fatalf("request context trace: %+v, %v", tr, ok)
	}
	stage := req.Root().Child("parse")
	time.Sleep(time.Millisecond)
	stage.End()
	stage = req.Root().Child("rank")
	stage.End()
	req.Ev.Tags, req.Ev.Results, req.Ev.Generation = 2, 5, 7
	req.Finish(nil)

	evs := tel.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != "query" || ev.Status != StatusOK || ev.Trace != tr.TraceID {
		t.Fatalf("event header: %+v", ev)
	}
	if ev.Tags != 2 || ev.Results != 5 || ev.Generation != 7 {
		t.Fatalf("caller fields lost: %+v", ev)
	}
	if ev.Duration < time.Millisecond {
		t.Fatalf("duration %v", ev.Duration)
	}
	if ev.Stage["parse"] < time.Millisecond || ev.Stage["rank"] < 0 {
		t.Fatalf("stage durations: %v", ev.Stage)
	}
	// The span tree reached the trace sink, root last, stamped with the
	// request's trace ID.
	spans := ring.All()
	if len(spans) != 3 || spans[2].Name != "query" || spans[2].ID != uint64(ev.Root) {
		t.Fatalf("spans delivered: %+v", spans)
	}
	for _, s := range spans {
		if s.Trace != tr.TraceID {
			t.Fatalf("span %s carries trace %s, want %s", s.Name, s.Trace, tr.TraceID)
		}
	}
}

// TestRequestTailSamplingDrops checks slow-log membership under a 1h
// threshold: a fast, ok request stays out of the log, an errored one enters
// it, and both deliver their spans to the sink.
func TestRequestTailSamplingDrops(t *testing.T) {
	o, ring, tel := newTestObserver(TelemetryConfig{SlowThreshold: time.Hour})
	defer tel.Close()

	_, req := o.StartRequest(context.Background(), "query")
	req.Root().Child("parse").End()
	req.Finish(nil)

	if evs := tel.Events(); len(evs) != 1 || evs[0].Status != StatusOK {
		t.Fatalf("fast request events: %+v", evs)
	}
	if spans := ring.All(); len(spans) != 2 {
		t.Fatalf("fast request delivered %d spans, want 2", len(spans))
	}
	if slow := tel.SlowQueries(); len(slow) != 0 {
		t.Fatalf("fast request entered the slow log: %+v", slow)
	}

	// An errored request is always slow-logged.
	_, req = o.StartRequest(context.Background(), "query")
	req.Root().Child("parse").End()
	req.Finish(errors.New("boom"))
	evs := tel.Events()
	if len(evs) != 2 || evs[1].Status != StatusError {
		t.Fatalf("errored request events: %+v", evs)
	}
	if spans := ring.All(); len(spans) != 4 {
		t.Fatalf("two requests delivered %d spans, want 4", len(spans))
	}
	slow := tel.SlowQueries()
	if len(slow) != 1 || slow[0].Error != "boom" {
		t.Fatalf("slow log: %+v", slow)
	}
}

func TestRequestJoinsContextTrace(t *testing.T) {
	o, _, tel := newTestObserver(TelemetryConfig{SlowThreshold: time.Hour})
	defer tel.Close()

	parent, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithTrace(context.Background(), parent)
	ctx2, req := o.StartRequest(ctx, "query")
	if got := req.Trace().TraceID; got != parent.TraceID {
		t.Fatalf("request minted trace %s instead of joining %s", got, parent.TraceID)
	}
	// The upstream sampled flag propagates to the request's own trace.
	child, _ := TraceFrom(ctx2)
	if !child.Sampled {
		t.Fatal("upstream sampled flag dropped")
	}
	req.Finish(nil)
	evs := tel.Events()
	if len(evs) != 1 {
		t.Fatalf("propagated-sampled request: %+v", evs)
	}
	if evs[0].Trace != parent.TraceID {
		t.Fatalf("wide event trace %s, want %s", evs[0].Trace, parent.TraceID)
	}
}

func TestRequestDegenerateWithoutTelemetry(t *testing.T) {
	o := NewObserver()
	ring := NewRing[SpanRecord](16)
	o.SetSink(ring)
	_, req := o.StartRequest(context.Background(), "query")
	req.Root().Child("parse").End()
	req.Finish(nil)
	req.Finish(nil) // idempotent
	// Pre-telemetry behavior: spans stream straight to the sink.
	if spans := ring.All(); len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}

	var nilObs *Observer
	_, req = nilObs.StartRequest(context.Background(), "query")
	req.Ev.Tags = 3
	req.Finish(errors.New("x")) // must not panic
	var nilReq *Request
	nilReq.Finish(nil)
	if nilReq.Root() != nil || nilReq.Trace().Valid() {
		t.Fatal("nil request not inert")
	}
}

func TestTelemetryCloseIdempotent(t *testing.T) {
	_, _, tel := newTestObserver(TelemetryConfig{})
	if !tel.Health().Ready() {
		tel.Health().MarkReady()
	}
	tel.Close()
	tel.Close()
	if tel.Health().State() != "shutdown" {
		t.Fatalf("state after close: %s", tel.Health().State())
	}
	var nilTel *Telemetry
	nilTel.Close()
	if nilTel.Events() != nil || nilTel.SlowQueries() != nil || nilTel.Health().Ready() {
		t.Fatal("nil telemetry not inert")
	}
}
