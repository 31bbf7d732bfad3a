package obs

import "sync"

// Ring keeps the most recent values in a fixed-size in-memory buffer. A
// Ring[SpanRecord] is a SpanSink (the :trace view of cmd/saccs-chat); a
// Ring[Event] holds Telemetry's recent wide events.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	full bool
}

// NewRing returns a ring holding up to capacity values (min 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Record stores one value, evicting the oldest when full.
func (r *Ring[T]) Record(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// All returns the buffered values, oldest first.
func (r *Ring[T]) All() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
