package obs

import (
	"bytes"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHDRQuantileAccuracy checks the histogram's high-dynamic-range
// (log-linear) layout against a sorted reference over a log-uniform workload:
// every reported quantile must be within the advertised 1/histSubs relative
// error of the exact ceil-rank order statistic.
func TestHDRQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := &Histogram{}
	const n = 20000
	vals := make([]int64, n)
	for i := range vals {
		// Log-uniform across ~9 decades, exercising both the exact unit
		// buckets and the log-linear range.
		v := int64(1) << uint(rng.Intn(30))
		v += rng.Int63n(v)
		vals[i] = v
		h.Observe(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	snap := h.Snapshot()
	if snap.Count != n {
		t.Fatalf("count: %d, want %d", snap.Count, n)
	}
	const relErr = 1.0 / histSubs
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(q * n)
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		got := int64(snap.Quantile(q))
		// The bucket upper bound can only overestimate, by at most the
		// bucket width (one part in histSubs of the value's magnitude).
		if got < exact || float64(got-exact) > relErr*float64(got)+1 {
			t.Errorf("q=%g: got %d, exact %d (rel err %.4f > %.4f)",
				q, got, exact, float64(got-exact)/float64(got), relErr)
		}
	}
	if m := snap.Mean(); m <= 0 {
		t.Fatalf("mean: %v", m)
	}
}

func TestHDRBucketBoundsConsistent(t *testing.T) {
	// Every value must land in a bucket whose bound is >= the value, and the
	// previous bucket's bound must be < the value (tightness).
	// Values up to 2^40-1 land in tight buckets; beyond that they clamp into
	// the final overflow bucket (checked separately below).
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<39 + 12345, 1<<40 - 1} {
		idx := bucketIndex(v)
		if b := int64(bucketBound(idx)); b < v {
			t.Errorf("value %d: bucket %d bound %d < value", v, idx, b)
		}
		if idx > 0 {
			if b := int64(bucketBound(idx - 1)); b >= v {
				t.Errorf("value %d: previous bucket %d bound %d >= value", v, idx-1, b)
			}
		}
	}
	// Bounds are strictly increasing across the whole range.
	for i := 1; i < histBuckets; i++ {
		if bucketBound(i) <= bucketBound(i-1) {
			t.Fatalf("bounds not increasing at %d: %d <= %d", i, bucketBound(i), bucketBound(i-1))
		}
	}
	// Out-of-range values clamp instead of panicking.
	if idx := bucketIndex(1 << 62); idx != histBuckets-1 {
		t.Fatalf("huge value bucket %d, want clamp to %d", idx, histBuckets-1)
	}
}

func TestHDRConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration((w+1)*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*per {
		t.Fatalf("count: %d, want %d", snap.Count, workers*per)
	}
	var total int64
	for _, b := range snap.Buckets {
		total += b.Count
	}
	if total != workers*per {
		t.Fatalf("bucket sum: %d, want %d", total, workers*per)
	}
	// Sum of (w+1)*1000+i over every worker and i.
	want := time.Duration(per*1000*workers*(workers+1)/2 + workers*per*(per-1)/2)
	if snap.Sum != want {
		t.Fatalf("sum: %v, want %v", snap.Sum, want)
	}
}

func TestHDRNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil histogram not inert")
	}
	var s HistogramSnapshot
	if s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot not zero")
	}
}

// TestHistogramBucketsAndQuantiles is the histogram's table test: for each
// case Count and Sum are exact (a negative duration counts as zero in both),
// every quantile is at most 1/histSubs above the exact ceil-rank order
// statistic from 1µs to 1min, the live and snapshot quantiles agree, and the
// Prometheus exposition parses.
func TestHistogramBucketsAndQuantiles(t *testing.T) {
	cases := []struct {
		name string
		obs  []time.Duration
		sum  time.Duration
	}{
		{"negative clamps to zero", []time.Duration{-5 * time.Millisecond, 0}, 0},
		{"exact unit buckets", []time.Duration{1, 31, 32, 33}, 97},
		{"one microsecond", []time.Duration{time.Microsecond}, time.Microsecond},
		{"one minute", []time.Duration{time.Minute, time.Minute}, 2 * time.Minute},
		{"1µs to 1min", []time.Duration{
			time.Microsecond, 10 * time.Microsecond, 250 * time.Microsecond, 3 * time.Millisecond,
			40 * time.Millisecond, 700 * time.Millisecond, 9 * time.Second, time.Minute,
		}, time.Minute + 9*time.Second + 743*time.Millisecond + 261*time.Microsecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("lat")
			exact := make([]time.Duration, len(c.obs))
			for i, d := range c.obs {
				h.Observe(d)
				exact[i] = max(d, 0)
			}
			sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
			s := h.Snapshot()
			if s.Count != int64(len(c.obs)) || s.Sum != c.sum {
				t.Fatalf("count %d sum %v, want %d and %v", s.Count, s.Sum, len(c.obs), c.sum)
			}
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
				want := exact[quantileRank(q, s.Count)-1]
				got := s.Quantile(q)
				if got < want || float64(got-want) > float64(want)/histSubs {
					t.Errorf("q=%g: got %v, exact %v", q, got, want)
				}
				if live := h.Quantile(q); live != got {
					t.Errorf("q=%g: live quantile %v, snapshot %v", q, live, got)
				}
			}
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
			out := buf.String()
			if err := ValidatePrometheusText(strings.NewReader(out)); err != nil {
				t.Fatalf("exposition: %v\n%s", err, out)
			}
			for _, want := range []string{
				"# TYPE lat_seconds summary", `lat_seconds{quantile="0.999"}`, "lat_seconds_count " + strconv.Itoa(len(c.obs)),
			} {
				if !strings.Contains(out, want) {
					t.Errorf("exposition missing %q:\n%s", want, out)
				}
			}
		})
	}
}
