package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestNewTraceIDsUnique(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("NewTraceID returned the all-zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
	spans := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		id := SpanID(nextSpanID())
		if id == 0 {
			t.Fatal("nextSpanID returned zero")
		}
		if spans[id] {
			t.Fatalf("duplicate span ID %s after %d draws", id, i)
		}
		spans[id] = true
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		tr := NewTrace()
		tr.Sampled = sampled
		s := tr.Traceparent()
		if len(s) != 55 {
			t.Fatalf("traceparent %q: length %d, want 55", s, len(s))
		}
		if s != strings.ToLower(s) {
			t.Fatalf("traceparent %q contains uppercase hex", s)
		}
		back, err := ParseTraceparent(s)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", s, err)
		}
		if back != tr {
			t.Fatalf("round trip: got %+v, want %+v", back, tr)
		}
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if tr, err := ParseTraceparent(valid); err != nil || !tr.Sampled {
		t.Fatalf("valid traceparent rejected: %+v, %v", tr, err)
	}
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"truncated", valid[:54]},
		{"too long", valid + "0"},
		{"bad version", "01" + valid[2:]},
		{"missing dash", "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"non-hex trace id", "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01"},
		{"zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"uppercase span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01"},
		{"non-hex flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x"},
	}
	for _, c := range cases {
		if tr, err := ParseTraceparent(c.in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted as %+v", c.name, c.in, tr)
		}
	}
}

func TestTraceIDJSONRoundTrip(t *testing.T) {
	for _, id := range []TraceID{NewTraceID(), {}, {Hi: 1}} {
		b, err := json.Marshal(id)
		if err != nil {
			t.Fatalf("marshal %v: %v", id, err)
		}
		var back TraceID
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != id {
			t.Fatalf("round trip: got %v, want %v", back, id)
		}
	}
	var id TraceID
	if err := json.Unmarshal([]byte(`"nope"`), &id); err == nil {
		t.Fatal("short non-hex trace ID accepted")
	}
	if err := json.Unmarshal([]byte(`"4BF92F3577B34DA6A3CE929D0E0E4736"`), &id); err == nil {
		t.Fatal("uppercase trace ID accepted")
	}
}

func TestContextWithTrace(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceFrom(ctx); ok {
		t.Fatal("empty context reported a trace")
	}
	tr := NewTrace()
	got, ok := TraceFrom(ContextWithTrace(ctx, tr))
	if !ok || got != tr {
		t.Fatalf("TraceFrom: %+v, %v; want %+v", got, ok, tr)
	}
}

// Traceparent serializes the trace in the W3C trace-context traceparent
// form: "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>", with flag
// bit 0 carrying Sampled. saccs-server accepts this header, so a caller's
// trace and the client's wide events share one trace ID.
func (tr Trace) Traceparent() string {
	flags := "00"
	if tr.Sampled {
		flags = "01"
	}
	return "00-" + tr.TraceID.String() + "-" + tr.SpanID.String() + "-" + flags
}
