package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// TestRingSinkConcurrentWraparound hammers a small span ring from many
// goroutines so every Record races the wraparound path, then checks the
// buffer holds exactly its capacity of well-formed records.
func TestRingSinkConcurrentWraparound(t *testing.T) {
	const (
		capacity   = 64
		writers    = 8
		perWriter  = 500
		totalSpans = writers * perWriter
	)
	ring := NewRing[SpanRecord](capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ring.Record(SpanRecord{
					ID:       uint64(w*perWriter + i + 1),
					Name:     "span",
					Start:    time.Unix(0, int64(i)),
					Duration: time.Duration(i),
				})
			}
		}(w)
	}
	wg.Wait()
	spans := ring.All()
	if len(spans) != capacity {
		t.Fatalf("after %d records ring holds %d spans, want %d", totalSpans, len(spans), capacity)
	}
	seen := make(map[uint64]bool, len(spans))
	for i, s := range spans {
		if s.ID == 0 || s.Name != "span" {
			t.Fatalf("slot %d holds a torn record: %+v", i, s)
		}
		if seen[s.ID] {
			t.Fatalf("span ID %d appears twice after wraparound", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestRingSinkWraps checks that a span ring over capacity keeps only the
// newest spans.
func TestRingSinkWraps(t *testing.T) {
	ring := NewRing[SpanRecord](3)
	for i := 1; i <= 5; i++ {
		ring.Record(SpanRecord{ID: uint64(i), Name: fmt.Sprint(i)})
	}
	spans := ring.All()
	if len(spans) != 3 || spans[0].ID != 3 || spans[2].ID != 5 {
		t.Fatalf("ring contents: %+v", spans)
	}
}

// TestRingSinkOldestFirstAfterWraparound pins the span ring's ordering
// contract: a partly filled ring returns what it holds in insertion order,
// and after wrap-around it holds the newest capacity spans, oldest first.
func TestRingSinkOldestFirstAfterWraparound(t *testing.T) {
	checkRingOrder(t, func(i int) SpanRecord { return SpanRecord{ID: uint64(i), Name: "s"} },
		func(s SpanRecord) int { return int(s.ID) })
}

// TestEventRingOldestFirst pins the same ordering contract for the ring of
// wide events.
func TestEventRingOldestFirst(t *testing.T) {
	checkRingOrder(t, func(i int) Event { return Event{Kind: "query", Results: i} },
		func(ev Event) int { return ev.Results })
}

func checkRingOrder[T any](t *testing.T, mk func(int) T, id func(T) int) {
	t.Helper()
	ring := NewRing[T](4)
	expect := func(want ...int) {
		t.Helper()
		got := ring.All()
		if len(got) != len(want) {
			t.Fatalf("ring holds %d values, want %d", len(got), len(want))
		}
		for i, w := range want {
			if id(got[i]) != w {
				t.Fatalf("slot %d: got %d, want %d (oldest first)", i, id(got[i]), w)
			}
		}
	}
	expect()
	for i := 1; i <= 3; i++ {
		ring.Record(mk(i))
	}
	expect(1, 2, 3)
	for i := 4; i <= 10; i++ {
		ring.Record(mk(i))
	}
	expect(7, 8, 9, 10)
}

// failAfterWriter fails every Write after the first n calls — the
// disk-full/closed-pipe shape a JSONL sink must absorb.
type failAfterWriter struct {
	mu    sync.Mutex
	n     int
	buf   bytes.Buffer
	calls int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	if w.calls > w.n {
		return 0, errors.New("writer failed")
	}
	return w.buf.Write(p)
}

// TestJSONLSinkWriterErrors checks that a failing writer never panics the
// sink or the traced operation, that records written before the failure are
// intact JSON lines, and that the sink keeps accepting records (so tracing
// outlives a transient sink failure).
func TestJSONLSinkWriterErrors(t *testing.T) {
	w := &failAfterWriter{n: 2}
	sink := NewJSONL[SpanRecord](w)
	for i := 1; i <= 5; i++ {
		sink.Record(SpanRecord{ID: uint64(i), Name: fmt.Sprintf("s%d", i)})
	}
	sc := bufio.NewScanner(bytes.NewReader(w.buf.Bytes()))
	var got []uint64
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("corrupt JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, rec.ID)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("lines before failure: got IDs %v, want [1 2]", got)
	}
}

// TestJSONLSinkConcurrentRecords checks that concurrent emission through the
// sink's internal lock produces one intact JSON line per span even though the
// underlying writer is a plain bytes.Buffer.
func TestJSONLSinkConcurrentRecords(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL[SpanRecord](&buf)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sink.Record(SpanRecord{ID: uint64(w*perWriter + i + 1), Name: "concurrent"})
			}
		}(w)
	}
	wg.Wait()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	seen := make(map[uint64]bool)
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("interleaved/corrupt JSONL line %q: %v", sc.Text(), err)
		}
		if seen[rec.ID] {
			t.Fatalf("span %d written twice", rec.ID)
		}
		seen[rec.ID] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("got %d intact lines, want %d", len(seen), writers*perWriter)
	}
}

// JSONL appends one JSON object per recorded value to a writer. A
// JSONL[SpanRecord] is a SpanSink.
type JSONL[T any] struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONL returns a sink streaming values to w as JSON lines.
func NewJSONL[T any](w io.Writer) *JSONL[T] {
	return &JSONL[T]{enc: json.NewEncoder(w)}
}

// Record writes one value as a JSON line; encoding errors are dropped (a
// telemetry sink must never fail the operation it describes).
func (s *JSONL[T]) Record(v T) {
	s.mu.Lock()
	_ = s.enc.Encode(v)
	s.mu.Unlock()
}
