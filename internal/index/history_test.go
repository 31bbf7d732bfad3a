package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refHistory is History as it was before eviction popped the queue's head:
// every eviction scanned pending and removed the tag with a memmove. It is
// kept as the reference the current implementation must match operation for
// operation.
type refHistory struct {
	cap     int
	pending []string
	seen    map[string]bool
	arrival []string
}

func (h *refHistory) setCap(n int) {
	h.cap = max(n, 0)
	h.evict()
}

func (h *refHistory) add(tag string) {
	if tag == "" || h.seen[tag] {
		return
	}
	h.seen[tag] = true
	h.arrival = append(h.arrival, tag)
	h.pending = append(h.pending, tag)
	h.evict()
}

func (h *refHistory) evict() {
	if h.cap <= 0 {
		return
	}
	for len(h.arrival) > h.cap {
		oldest := h.arrival[0]
		h.arrival = h.arrival[1:]
		delete(h.seen, oldest)
		for i, t := range h.pending {
			if t == oldest {
				h.pending = append(h.pending[:i], h.pending[i+1:]...)
				break
			}
		}
	}
}

func (h *refHistory) drain() []string {
	out := h.pending
	h.pending = nil
	return out
}

func (h *refHistory) requeue(tags []string) {
	queued := make(map[string]bool, len(h.pending))
	for _, t := range h.pending {
		queued[t] = true
	}
	var front []string
	for _, t := range tags {
		if h.seen[t] && !queued[t] {
			front = append(front, t)
			queued[t] = true
		}
	}
	if len(front) > 0 {
		h.pending = append(front, h.pending...)
	}
}

// TestHistoryMatchesReference runs seeded random Add / Drain / Requeue /
// SetCap sequences against History and refHistory and requires the same
// queue, drains and seen-set after every operation. Requeues replay earlier
// drains in any order, so the evicted tag is sometimes queued away from the
// head of the queue (the scan path).
func TestHistoryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, ref := NewHistory(), &refHistory{seen: map[string]bool{}}
		var drains [][]string
		vocab := 4 + rng.Intn(60)
		for op := 0; op < 3000; op++ {
			var what string
			switch r := rng.Intn(100); {
			case r < 70:
				tag := fmt.Sprintf("t%d", rng.Intn(vocab))
				if rng.Intn(50) == 0 {
					tag = ""
				}
				what = "Add " + tag
				h.Add(tag)
				ref.add(tag)
			case r < 80:
				what = "Drain"
				got, want := h.Drain(), ref.drain()
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Drain = %v, reference %v", seed, op, got, want)
				}
				drains = append(drains, slices.Clone(want))
			case r < 92:
				if len(drains) == 0 {
					continue
				}
				d := drains[rng.Intn(len(drains))]
				what = fmt.Sprintf("Requeue %v", d)
				h.Requeue(d)
				ref.requeue(d)
			default:
				n := rng.Intn(vocab) - 2
				what = fmt.Sprintf("SetCap %d", n)
				h.SetCap(n)
				ref.setCap(n)
			}
			if got := h.Pending(); !slices.Equal(got, ref.pending) {
				t.Fatalf("seed %d op %d (%s): pending %v, reference %v", seed, op, what, got, ref.pending)
			}
			if h.Len() != len(ref.pending) || len(h.seen) != len(ref.seen) {
				t.Fatalf("seed %d op %d (%s): Len %d, %d seen; reference %d, %d",
					seed, op, what, h.Len(), len(h.seen), len(ref.pending), len(ref.seen))
			}
			for tag := range ref.seen {
				if _, ok := h.seen[tag]; !ok {
					t.Fatalf("seed %d op %d (%s): %q forgotten, reference remembers it", seed, op, what, tag)
				}
			}
		}
	}
}

// TestHistoryEvictionAllocs pins the steady state of a full history: each
// new tag evicts the oldest queued one without growing either queue.
func TestHistoryEvictionAllocs(t *testing.T) {
	const limit = 4096
	tags := make([]string, 4*limit)
	for i := range tags {
		tags[i] = fmt.Sprintf("tag-%d", i)
	}
	h := NewHistory()
	h.SetCap(limit)
	for _, tag := range tags[:2*limit] {
		h.Add(tag)
	}
	next := 2 * limit
	allocs := testing.AllocsPerRun(2*limit-1, func() {
		h.Add(tags[next])
		next++
	})
	if allocs > 0.01 {
		t.Fatalf("Add at the cap: %.3f allocs per tag, want none", allocs)
	}
	if h.Len() != limit {
		t.Fatalf("Len = %d, want %d", h.Len(), limit)
	}
}

// BenchmarkHistoryAddAtCap is one new tag arriving at the served cap
// (Config.HistoryLimit, 4 096): it evicts the oldest queued tag.
func BenchmarkHistoryAddAtCap(b *testing.B) {
	const limit = 4096
	tags := make([]string, 1<<16)
	for i := range tags {
		tags[i] = fmt.Sprintf("tag-%d", i)
	}
	h := NewHistory()
	h.SetCap(limit)
	for _, tag := range tags[:limit] {
		h.Add(tag)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(tags[(limit+i)%len(tags)])
	}
}
