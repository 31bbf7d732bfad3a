package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("q.total")
	c.Inc()
	c.Add(4)
	if got := r.Counter("q.total").Value(); got != 5 {
		t.Fatalf("counter: %d", got)
	}
	g := r.Gauge("loss")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge: %g", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Second)
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var o *Observer
	o.Counter("x").Inc()
	o.SetSink(nil)
	if o.loadSink() != nil {
		t.Fatal("nil observer has a sink")
	}
	_, req := o.StartRequest(context.Background(), "root")
	sp := req.Root()
	sp.Set("k", "v").Child("child").End()
	if sp.Live() || sp.End() != 0 {
		t.Fatal("a request without a sink has a live root")
	}
	req.Finish(errors.New("x"))
	st := BeginStage(o, nil, "parse")
	st.End()
	var nilReq *Request
	var nilSpan *Span
	nilReq.Finish(nil)
	nilSpan.Set("k", "v").SetStatus(errors.New("x")).Child("child").End()
	if nilReq.Root() != nil || nilSpan.Live() || nilSpan.End() != 0 {
		t.Fatal("nil request or span not inert")
	}
}

func TestNoopSpanZeroAllocs(t *testing.T) {
	var req *Request
	allocs := testing.AllocsPerRun(100, func() {
		sp := req.Root()
		st := BeginStage(nil, sp, "parse")
		child := sp.Child("parse")
		child.Set("k", 1)
		child.End()
		st.End()
		req.Finish(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op", allocs)
	}
}

// sinkObserver returns an observer, without telemetry, whose requests record
// to sink.
func sinkObserver(sink SpanSink) *Observer {
	o := NewObserver()
	o.SetSink(sink)
	return o
}

func TestSpanHierarchyAndRingSink(t *testing.T) {
	ring := NewRing[SpanRecord](16)
	_, req := sinkObserver(ring).StartRequest(context.Background(), "query")
	root := req.Root().Set("utterance", "hi")
	c1 := root.Child("parse")
	time.Sleep(time.Millisecond)
	c1.End()
	c2 := root.Child("rank")
	c2.Child("index.resolve").Set("tag", "delicious food").End()
	c2.End()
	req.Finish(nil)

	spans := ring.All()
	if len(spans) != 4 {
		t.Fatalf("spans: %d", len(spans))
	}
	// Spans reach the sink as they end: children first, the root last.
	if spans[3].Name != "query" || spans[0].Name != "parse" {
		t.Fatalf("delivery order: %+v", spans)
	}
	rec, ok := LastRoot(spans)
	if !ok || rec.Name != "query" || rec.Parent != 0 {
		t.Fatalf("root: %+v ok=%v", rec, ok)
	}
	if rec.Duration < time.Millisecond {
		t.Fatalf("root duration: %s", rec.Duration)
	}
	sub := Subtree(spans, rec.ID)
	if len(sub) != 4 || sub[0].Name != "query" {
		t.Fatalf("subtree: %+v", sub)
	}
	var buf bytes.Buffer
	WriteTree(&buf, sub)
	out := buf.String()
	for _, want := range []string{"query", "parse", "rank", "index.resolve", "tag=delicious food"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
	// Indented child appears after its parent.
	if strings.Index(out, "index.resolve") < strings.Index(out, "rank") {
		t.Fatalf("child ordering:\n%s", out)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	_, req := sinkObserver(NewJSONL[SpanRecord](&buf)).StartRequest(context.Background(), "query")
	req.Root().Child("parse").Set("n", 3).End()
	req.Finish(nil)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %d", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["name"] != "parse" || rec["parent"] == nil {
		t.Fatalf("jsonl record: %v", rec)
	}
}

func TestSnapshotAndPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("query.total").Add(7)
	r.Gauge("index.tags").Set(18)
	r.Histogram("query.latency").Observe(3 * time.Millisecond)

	s := r.Snapshot()
	if s.Counters["query.total"] != 7 || s.Gauges["index.tags"] != 18 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.Histograms["query.latency"].Count != 1 {
		t.Fatalf("hist snapshot: %+v", s.Histograms)
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE query_total counter", "query_total 7",
		"# TYPE index_tags gauge", "index_tags 18",
		"# TYPE query_latency_seconds summary",
		`query_latency_seconds{quantile="0.5"}`,
		"query_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	var txt bytes.Buffer
	s.WriteText(&txt)
	if !strings.Contains(txt.String(), "query.latency") {
		t.Fatalf("text output:\n%s", txt.String())
	}
}

func TestConcurrentInstruments(t *testing.T) {
	o := sinkObserver(NewRing[SpanRecord](64))
	r := o.Metrics
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(time.Microsecond)
				_, req := o.StartRequest(context.Background(), "root")
				req.Root().Child("leaf").End()
				req.Finish(nil)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 1600 {
		t.Fatalf("counter under concurrency: %d", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 1600 {
		t.Fatalf("histogram under concurrency: %d", got)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	o := NewObserver()
	o.Counter("query.total").Inc()
	srv, err := ServeObserver("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "query_total 1") {
		t.Fatalf("/metrics body:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}
