package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestValidatePrometheusTextAccepts(t *testing.T) {
	valid := []string{
		"",
		"# HELP x y\n# TYPE q_total counter\nq_total 5\n",
		"# TYPE temp gauge\ntemp{city=\"montreal\",unit=\"c\"} -3.5\n",
		"# TYPE lat_seconds histogram\n" +
			"lat_seconds_bucket{le=\"0.1\"} 2\n" +
			"lat_seconds_bucket{le=\"1\"} 3\n" +
			"lat_seconds_bucket{le=\"+Inf\"} 4\n" +
			"lat_seconds_sum 2.5\n" +
			"lat_seconds_count 4\n",
		"# TYPE rq_seconds summary\n" +
			"rq_seconds{quantile=\"0.5\"} 0.01\n" +
			"rq_seconds{quantile=\"0.99\"} 0.2\n" +
			"rq_seconds_sum 1.5\n" +
			"rq_seconds_count 30\n",
		"untyped_metric 1 1700000000\n",
	}
	for i, in := range valid {
		if err := ValidatePrometheusText(strings.NewReader(in)); err != nil {
			t.Errorf("valid payload %d rejected: %v\n%s", i, err, in)
		}
	}
}

func TestValidatePrometheusTextRejects(t *testing.T) {
	invalid := []struct {
		name, in string
	}{
		{"garbage sample", "this is not a metric line\n"},
		{"bad value", "x_total five\n"},
		{"bad name", "# TYPE 9lives counter\n"},
		{"duplicate type", "# TYPE a counter\n# TYPE a gauge\na 1\n"},
		{"unknown type", "# TYPE a rainbow\na 1\n"},
		{"unclosed labels", "a{b=\"c 1\n"},
		{"histogram missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n"},
		{"histogram missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\n"},
		{"histogram missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n"},
		{"histogram no buckets", "# TYPE h histogram\nh_sum 1\nh_count 2\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 2\nh_sum 1\nh_count 2\n"},
		{"unparseable le", "# TYPE h histogram\nh_bucket{le=\"wide\"} 2\nh_sum 1\nh_count 2\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"unsorted bounds", "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"+Inf disagrees with count", "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"},
		{"summary series without quantile", "# TYPE s summary\ns 1\ns_sum 1\ns_count 1\n"},
		{"summary missing count", "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 1\n"},
	}
	for _, c := range invalid {
		if err := ValidatePrometheusText(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted\n%s", c.name, c.in)
		}
	}
}

// TestWritePrometheusConformant feeds a fully populated registry — counters,
// gauges, latency summaries, SLO instruments — through
// the exposition validator: whatever /metrics serves must parse under the
// text-format grammar with coherent summary invariants.
func TestWritePrometheusConformant(t *testing.T) {
	o, _, tel := newTestObserver(TelemetryConfig{
		HeadSampleN:   2,
		SlowThreshold: time.Millisecond,
		SLOTarget:     50 * time.Millisecond,
	})
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
	if err := ValidatePrometheusText(strings.NewReader(out)); err != nil {
		t.Fatalf("WritePrometheus output fails the exposition grammar: %v\n%s", err, out)
	}
	for _, want := range []string{
		"request_latency_query_seconds{quantile=\"0.5\"}",
		"request_latency_query_seconds{quantile=\"0.999\"}",
		"request_latency_query_seconds_count 200",
		"slo_error_budget_burn",
		"slo_requests_good_total",
		"runtime_goroutines",
		"stage_parse_latency_seconds{quantile=\"0.99\"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics payload missing %q", want)
		}
	}
}
