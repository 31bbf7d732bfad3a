package index

import "sync"

// History is the user tag history of §3.1: unknown tags extracted from user
// utterances queue here until the next indexing round. It is safe for
// concurrent use — queries on parallel conversations append to one shared
// history.
//
// The history remembers every tag it has ever queued (so a drained tag is
// not re-queued on the next utterance). Over a long conversational session
// that memory grows without bound unless capped: SetCap bounds the seen-set
// to the n most recently first-seen tags, evicting oldest-first. An evicted
// tag is forgotten entirely — dropped from the pending queue if still queued,
// and re-queued like a brand-new tag if a later utterance mentions it again.
type History struct {
	mu  sync.Mutex
	cap int
	// seen maps every remembered tag to whether it is queued in pending.
	seen    map[string]bool
	pending tagQueue
	// arrival records seen tags oldest-first, driving eviction order.
	arrival tagQueue
}

// NewHistory returns an empty, unbounded history.
func NewHistory() *History { return &History{seen: map[string]bool{}} }

// SetCap bounds the history's memory to the n most recently first-seen tags
// (0 or negative removes the bound). If the history already holds more than
// n tags, the oldest are evicted immediately.
func (h *History) SetCap(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n < 0 {
		n = 0
	}
	h.cap = n
	h.evictLocked()
}

// Add queues a tag once; duplicates and the empty tag are ignored. When the
// cap is exceeded the oldest-seen tag is evicted.
func (h *History) Add(tag string) {
	if tag == "" {
		return
	}
	h.mu.Lock()
	if _, ok := h.seen[tag]; !ok {
		h.seen[tag] = true
		h.arrival.push(tag)
		h.pending.push(tag)
		h.evictLocked()
	}
	h.mu.Unlock()
}

// evictLocked drops oldest-seen tags until the cap holds; h.mu must be held.
// A queued oldest tag is almost always the head of pending, which arrives in
// the same order; only a Requeue out of arrival order puts it elsewhere, and
// then it is found by a scan.
func (h *History) evictLocked() {
	if h.cap <= 0 {
		return
	}
	for h.arrival.len() > h.cap {
		oldest := h.arrival.pop()
		queued := h.seen[oldest]
		delete(h.seen, oldest)
		if !queued {
			continue
		}
		if h.pending.items()[0] == oldest {
			h.pending.pop()
		} else {
			h.pending.remove(oldest)
		}
	}
}

// Pending returns queued tags in arrival order (a defensive copy; the query
// path should prefer Each, which does not allocate).
func (h *History) Pending() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.pending.items()...)
}

// Drain returns and clears the queue (the seen-set persists so a drained
// tag is not re-queued).
func (h *History) Drain() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.pending.items()
	for _, t := range out {
		h.seen[t] = false
	}
	h.pending = tagQueue{}
	return out
}

// Requeue returns previously drained tags to the front of the queue — the
// recovery path for an indexing round that was cancelled after draining.
// Tags already queued or no longer remembered (evicted since the drain) are
// skipped.
func (h *History) Requeue(tags []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var front []string
	for _, t := range tags {
		if queued, ok := h.seen[t]; ok && !queued {
			front = append(front, t)
			h.seen[t] = true
		}
	}
	if len(front) > 0 {
		h.pending = tagQueue{s: append(front, h.pending.items()...)}
	}
}

// tagQueue is a FIFO of tags over one slice: pop advances a head index, and
// once the popped prefix reaches half the slice the live tail is copied down
// in place. Each tag is copied at most once per pop on average, and a queue
// that stays near one size stops allocating once its backing array holds
// twice that size.
type tagQueue struct {
	s    []string
	head int
}

func (q *tagQueue) len() int { return len(q.s) - q.head }

// items returns the queued tags oldest-first, sharing the queue's storage.
func (q *tagQueue) items() []string { return q.s[q.head:] }

func (q *tagQueue) push(t string) { q.s = append(q.s, t) }

// pop removes and returns the oldest tag; the queue must not be empty.
func (q *tagQueue) pop() string {
	t := q.s[q.head]
	q.s[q.head] = ""
	q.head++
	if 2*q.head >= len(q.s) {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	return t
}

// remove deletes the first queued occurrence of t, if any.
func (q *tagQueue) remove(t string) {
	live := q.items()
	for i, v := range live {
		if v == t {
			copy(live[i:], live[i+1:])
			live[len(live)-1] = ""
			q.s = q.s[:len(q.s)-1]
			return
		}
	}
}
