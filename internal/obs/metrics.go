package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are safe
// on a nil receiver (no-ops), so call sites need no enabled-checks.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 holding the latest value of some measurement
// (a loss, a queue depth, an index size). Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: log-linear. Values below histSubs nanoseconds get
// exact unit-width buckets; above, each power-of-two range is split into
// histSubs linear sub-buckets, so a bucket's width is at most 1/histSubs of
// the values it holds.
const (
	histSubBits = 5
	histSubs    = 1 << histSubBits
	// histMajors covers values up to 2^(histMajors+histSubBits) ns ≈ 18.3
	// min; anything larger clamps into the last bucket.
	histMajors  = 35
	histBuckets = (histMajors + 1) * histSubs
)

// bucketIndex maps a non-negative value to its bucket: the top histSubBits
// bits after the leading one select the sub-bucket within the value's
// power-of-two range.
func bucketIndex(v int64) int {
	if v < histSubs {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits
	return min((exp+1)*histSubs+int(v>>uint(exp))-histSubs, histBuckets-1)
}

// bucketBound returns the inclusive upper bound of bucket idx, the value
// reported for any quantile landing in it.
func bucketBound(idx int) time.Duration {
	if idx < histSubs {
		return time.Duration(idx)
	}
	exp := idx/histSubs - 1
	return time.Duration(int64(histSubs+idx%histSubs+1)<<uint(exp) - 1)
}

// quantileRank is the 1-based rank of the q-quantile (q clamped to [0,1])
// among n observations.
func quantileRank(q float64, n int64) int64 {
	return max(int64(math.Ceil(min(max(q, 0), 1)*float64(n))), 1)
}

// Histogram is a lock-free log-linear latency histogram: every quantile it
// reports is the upper bound of a bucket at most 1/32 of its value wide, from
// 1ns to ~18 minutes. A negative duration counts as zero in both the buckets
// and Sum. Nil-safe like Counter.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	n      atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := max(int64(d), 0)
	h.counts[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Quantile returns the q-quantile like HistogramSnapshot.Quantile, read
// straight from the live counters: it copies nothing and allocates nothing.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank, seen, last := quantileRank(q, n), int64(0), 0
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			seen, last = seen+c, i
			if seen >= rank {
				break
			}
		}
	}
	return bucketBound(last)
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.n.Load()
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			s.Buckets = append(s.Buckets, Bucket{Bound: bucketBound(i), Count: c})
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket: Count observations at most Bound.
type Bucket struct {
	Bound time.Duration
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Count is the number of observations; Sum their total duration.
	Count int64
	Sum   time.Duration
	// Buckets holds the non-empty buckets in increasing order of Bound.
	Buckets []Bucket
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation (q clamped to [0,1]), at most 1/32 above the true value. An
// empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank, seen := quantileRank(q, s.Count), int64(0)
	for _, b := range s.Buckets {
		if seen += b.Count; seen >= rank {
			return b.Bound
		}
	}
	return s.Buckets[len(s.Buckets)-1].Bound
}

// Registry is a named collection of counters, gauges, and histograms.
// Instruments are created on first use and live for the registry's lifetime;
// lookups are cheap, but hot paths should resolve a handle once and keep it.
// All methods are safe on a nil receiver, returning nil instruments whose
// methods are in turn no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// stages and latencies resolve the per-stage and per-request-kind
	// histograms BeginStage and Request.Finish record into on every query.
	stages    histFamily
	latencies histFamily
}

// histFamily caches the histograms named prefix+key, so a hot path that
// derives a histogram's name from a key (a stage name, a request kind)
// builds the name and takes the registry lock only on its first lookup of
// each key. The cache is copy-on-write: readers load it atomically.
type histFamily struct {
	prefix string
	byKey  atomic.Pointer[map[string]*Histogram]
}

// member returns the family's histogram for key, registering it in r on
// first use. Nil-safe.
func (r *Registry) member(f *histFamily, key string) *Histogram {
	if r == nil {
		return nil
	}
	if m := f.byKey.Load(); m != nil {
		if h, ok := (*m)[key]; ok {
			return h
		}
	}
	h := r.Histogram(f.prefix + key)
	r.mu.Lock()
	next := map[string]*Histogram{key: h}
	if m := f.byKey.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	f.byKey.Store(&next)
	r.mu.Unlock()
	return h
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		stages:    histFamily{prefix: "stage."},
		latencies: histFamily{prefix: "request.latency."},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry, plus —
// when taken through Observer.Snapshot with telemetry attached — the
// slow-query log.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	// Histograms holds every latency histogram, the per-stage stage.<name>
	// and per-request-kind request.latency.<kind> ones included.
	Histograms map[string]HistogramSnapshot
	// Slow is the worst-K slow-query log, slowest first. Empty without
	// telemetry.
	Slow []Event
}

// Snapshot copies the registry's current state. Nil-safe (returns empty maps).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// WriteText renders the snapshot for humans: counters and gauges one per
// line, histograms as count, mean and p50/p90/p99/p999.
func (s Snapshot) WriteText(w io.Writer) {
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "%-40s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "%-40s %g\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(w, "%-40s n=%d mean=%s p50=%s p90=%s p99=%s p999=%s\n",
			k, h.Count, h.Mean().Round(time.Microsecond),
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (0.0.4): counters and gauges verbatim, and every histogram as a
// summary in seconds with p50/p90/p99/p999 quantile series plus _sum and
// _count. Metric names are sanitized ('.', '-' → '_').
func (r *Registry) WritePrometheus(w io.Writer) {
	s := r.Snapshot()
	for _, k := range sortedKeys(s.Counters) {
		name := promName(k)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		name := promName(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name,
			formatPromFloat(s.Gauges[k]))
	}
	for _, k := range sortedKeys(s.Histograms) {
		name := promName(k) + "_seconds"
		h := s.Histograms[k]
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		for _, q := range [...]float64{0.5, 0.9, 0.99, 0.999} {
			fmt.Fprintf(w, "%s{quantile=%q} %s\n", name, formatPromFloat(q),
				formatPromFloat(h.Quantile(q).Seconds()))
		}
		fmt.Fprintf(w, "%s_sum %s\n", name, formatPromFloat(h.Sum.Seconds()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	}
}

// formatPromFloat renders a float sample value for the text exposition
// format.
func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promName maps a dotted instrument name onto the Prometheus charset.
func promName(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out[i] = c
		case c >= '0' && c <= '9':
			if i == 0 {
				out[i] = '_'
			} else {
				out[i] = c
			}
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
