package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"saccs/internal/obs/promtext"
)

// TestWritePrometheusConformant feeds a fully populated registry — counters,
// gauges, latency summaries, runtime gauges — through the exposition
// validator: whatever /metrics serves must parse under the
// text-format grammar with coherent summary invariants.
func TestWritePrometheusConformant(t *testing.T) {
	o, _, tel := newTestObserver(TelemetryConfig{SlowThreshold: time.Millisecond})
	defer tel.Close()

	o.Counter("query.total").Add(7)
	o.Gauge("index.generation").Set(3)
	for i := 0; i < 50; i++ {
		o.Histogram("stage.parse.latency").Observe(time.Duration(i) * time.Microsecond)
	}
	for i := 0; i < 200; i++ {
		_, req := o.StartRequest(context.Background(), "query")
		req.Finish(nil)
	}

	var buf bytes.Buffer
	o.Metrics.WritePrometheus(&buf)
	out := buf.String()
	if err := promtext.Validate(strings.NewReader(out)); err != nil {
		t.Fatalf("WritePrometheus output fails the exposition grammar: %v\n%s", err, out)
	}
	for _, want := range []string{
		"request_latency_query_seconds{quantile=\"0.5\"}",
		"request_latency_query_seconds{quantile=\"0.999\"}",
		"request_latency_query_seconds_count 200",
		"runtime_goroutines",
		"stage_parse_latency_seconds{quantile=\"0.99\"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics payload missing %q", want)
		}
	}
}
