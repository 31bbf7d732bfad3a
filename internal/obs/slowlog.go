package obs

import (
	"sort"
	"sync"
	"time"
)

// slowRule is the slow-query log's latency rule for a finished query: slow
// at or above threshold, or — once request.latency.query holds
// slowMinCount observations — slower than that histogram's rolling p99. The
// zero rule (no threshold configured) is never slow, so only errored
// requests enter the log.
type slowRule struct {
	threshold time.Duration
	p99       *Histogram
}

// slowMinCount gates the rolling-p99 rule: with fewer observations the
// empirical p99 is noise (it equals the max of a handful of samples), so the
// rule stays off until the histogram has a real tail to compare against.
const slowMinCount = 100

// slow reports whether a query that took d is slow. It reads the
// histogram's live counters: no snapshot, no allocation.
func (r slowRule) slow(d time.Duration) bool {
	if r.threshold <= 0 {
		return false
	}
	return d >= r.threshold || (r.p99.Count() >= slowMinCount && d > r.p99.Quantile(0.99))
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
