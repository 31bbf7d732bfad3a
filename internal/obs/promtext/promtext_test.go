package promtext

import (
	"strings"
	"testing"
)

func TestValidateAccepts(t *testing.T) {
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
		if err := Validate(strings.NewReader(in)); err != nil {
			t.Errorf("valid payload %d rejected: %v\n%s", i, err, in)
		}
	}
}

func TestValidateRejects(t *testing.T) {
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
		if err := Validate(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted\n%s", c.name, c.in)
		}
	}
}
