package obs

import (
	"bytes"
	"encoding/json"
	"io"
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
	o.SetTracer(nil)
	sp := o.StartSpan("root")
	sp.Set("k", "v").Child("child").End()
	if sp.End() != 0 {
		t.Fatal("nil span End")
	}
	st := BeginStage(o, nil, "parse")
	st.End()
	var tr *Tracer
	if tr.Start("x") != nil {
		t.Fatal("nil tracer Start")
	}
}

func TestNoopSpanZeroAllocs(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(100, func() {
		sp := o.StartSpan("query")
		child := sp.Child("parse")
		child.Set("k", 1)
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op", allocs)
	}
}

func TestSpanHierarchyAndRingSink(t *testing.T) {
	ring := NewRing[SpanRecord](16)
	tr := NewTracer(ring)
	root := tr.Start("query").Set("utterance", "hi")
	c1 := root.Child("parse")
	time.Sleep(time.Millisecond)
	c1.End()
	c2 := root.Child("rank")
	c2.Child("index.resolve").Set("tag", "delicious food").End()
	c2.End()
	root.End()

	spans := ring.All()
	if len(spans) != 4 {
		t.Fatalf("spans: %d", len(spans))
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
	tr := NewTracer(NewJSONL[SpanRecord](&buf))
	sp := tr.Start("query")
	sp.Child("parse").Set("n", 3).End()
	sp.End()
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
	r := NewRegistry()
	tr := NewTracer(NewRing[SpanRecord](64))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(time.Microsecond)
				sp := tr.Start("root")
				sp.Child("leaf").End()
				sp.End()
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
