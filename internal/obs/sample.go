package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sampler makes tail-sampling retention decisions. A nil *Sampler is the
// pass-through mode (no sampling knobs configured): every request's span
// tree is retained, matching the pre-telemetry tracing behavior.
type Sampler struct {
	// HeadN retains every Nth request up-front (1 = all, 0 = none).
	HeadN int
	// Slow is the fixed slow threshold (0 = disabled).
	Slow time.Duration
	// hist, when set, enables the adaptive rule: a request slower than the
	// rolling p99 of the query-latency histogram is slow even under the
	// fixed threshold.
	hist *Histogram
	seq  atomic.Uint64
}

// samplerMinCount gates the rolling-p99 rule: with fewer observations the
// empirical p99 is noise (it equals the max of a handful of samples), so the
// adaptive rule stays off until the histogram has a real tail to compare
// against.
const samplerMinCount = 100

// SampleHead decides head sampling for a new request: true for every HeadN-th
// request. Nil or HeadN<=0 never head-samples.
func (s *Sampler) SampleHead() bool {
	if s == nil || s.HeadN <= 0 {
		return false
	}
	return s.seq.Add(1)%uint64(s.HeadN) == 0
}

// IsSlow reports whether d crosses the fixed threshold or the rolling p99 of
// the request-latency histogram. Nil is never slow.
func (s *Sampler) IsSlow(d time.Duration) bool {
	if s == nil {
		return false
	}
	if s.Slow > 0 && d >= s.Slow {
		return true
	}
	if s.hist.Count() >= samplerMinCount && d > s.hist.Quantile(0.99) {
		return true
	}
	return false
}

// Decide returns the tail-sampling verdict for a finished request: whether
// its span tree is retained, and why. Precedence: error > slow > head; a
// nil sampler retains everything with reason "all".
func (s *Sampler) Decide(status string, d time.Duration, head bool) (bool, string) {
	if s == nil {
		return true, "all"
	}
	if status != StatusOK {
		return true, "error"
	}
	if s.IsSlow(d) {
		return true, "slow"
	}
	if head {
		return true, "head"
	}
	return false, ""
}

// SlowLog is a bounded worst-K log of slow or errored requests, kept as a
// min-heap on duration so the fastest of the worst is evicted first.
type SlowLog struct {
	mu   sync.Mutex
	heap []Event
	k    int
}

// NewSlowLog returns a slow log retaining the k worst requests (min 1).
func NewSlowLog(k int) *SlowLog {
	if k < 1 {
		k = 1
	}
	return &SlowLog{k: k}
}

// Insert offers one event; it is kept if the log has room or it is slower
// than the log's current fastest entry.
func (l *SlowLog) Insert(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.heap) < l.k {
		l.heap = append(l.heap, ev)
		l.siftUp(len(l.heap) - 1)
		return
	}
	if ev.Duration <= l.heap[0].Duration {
		return
	}
	l.heap[0] = ev
	l.siftDown(0)
}

// Worst returns the logged events, slowest first.
func (l *SlowLog) Worst() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]Event(nil), l.heap...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

func (l *SlowLog) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if l.heap[p].Duration <= l.heap[i].Duration {
			return
		}
		l.heap[p], l.heap[i] = l.heap[i], l.heap[p]
		i = p
	}
}

func (l *SlowLog) siftDown(i int) {
	n := len(l.heap)
	for {
		least := i
		if c := 2*i + 1; c < n && l.heap[c].Duration < l.heap[least].Duration {
			least = c
		}
		if c := 2*i + 2; c < n && l.heap[c].Duration < l.heap[least].Duration {
			least = c
		}
		if least == i {
			return
		}
		l.heap[i], l.heap[least] = l.heap[least], l.heap[i]
		i = least
	}
}

// SLO tracks a latency service-level objective: queries at or under Target
// are good, the rest bad, and the burn gauge scales the bad fraction by the
// error budget (1 - sloObjective), so burn 1.0 means the budget is being
// spent exactly as fast as the objective allows and >1 means it is being
// exceeded.
type SLO struct {
	Target time.Duration
	good   *Counter
	bad    *Counter
	burn   *Gauge
}

// NewSLO registers the SLO instruments in reg: slo.requests.good.total,
// slo.requests.bad.total, slo.error_budget.burn, and slo.target.seconds.
func NewSLO(reg *Registry, target time.Duration) *SLO {
	s := &SLO{
		Target: target,
		good:   reg.Counter("slo.requests.good.total"),
		bad:    reg.Counter("slo.requests.bad.total"),
		burn:   reg.Gauge("slo.error_budget.burn"),
	}
	reg.Gauge("slo.target.seconds").Set(target.Seconds())
	return s
}

// Record classifies one query against the SLO (non-ok statuses other than
// client cancellation count as bad regardless of latency) and refreshes the
// burn gauge.
func (s *SLO) Record(d time.Duration, status string) {
	if s == nil {
		return
	}
	if (status == StatusOK || status == StatusCancelled) && d <= s.Target {
		s.good.Inc()
	} else {
		s.bad.Inc()
	}
	good, bad := s.good.Value(), s.bad.Value()
	if total := good + bad; total > 0 {
		badFrac := float64(bad) / float64(total)
		s.burn.Set(badFrac / (1 - sloObjective))
	}
}
