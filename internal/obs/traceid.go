package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit process-unique request identity, rendered as 32
// lowercase hex digits — the W3C trace-context trace-id. The zero value is
// invalid (per the W3C spec, an all-zero trace-id must be rejected).
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string {
	return fmt.Sprintf("%016x%016x", t.Hi, t.Lo)
}

// MarshalText renders the ID as hex, so JSON wide events and JSONL span
// records carry "4bf92f3577b34da6a3ce929d0e0e4736"-style strings.
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses the 32-hex-digit form written by MarshalText. Unlike
// ParseTraceparent it accepts the all-zero form (and ""), so span records
// from tracers without a trace identity round-trip through JSON.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*t = TraceID{}
		return nil
	}
	s := string(b)
	if len(s) != 32 {
		return fmt.Errorf("obs: trace ID %q is not 32 hex digits", s)
	}
	hi, err1 := parseHexField(s[:16])
	lo, err2 := parseHexField(s[16:])
	if err1 != nil || err2 != nil {
		return fmt.Errorf("obs: trace ID %q is not lowercase hex", s)
	}
	*t = TraceID{Hi: hi, Lo: lo}
	return nil
}

// SpanID is a 64-bit span identity, rendered as 16 lowercase hex digits —
// the W3C trace-context parent-id. Zero is invalid.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// MarshalText renders the ID as hex.
func (s SpanID) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the 16-hex-digit form written by MarshalText. Like
// TraceID.UnmarshalText it accepts the all-zero form (and ""), so span
// records without a trace identity round-trip through JSON; ParseTraceparent
// stays strict.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*s = 0
		return nil
	}
	str := string(b)
	if len(str) != 16 {
		return fmt.Errorf("obs: span ID %q is not 16 hex digits", str)
	}
	v, err := parseHexField(str)
	if err != nil {
		return fmt.Errorf("obs: span ID %q is not lowercase hex", str)
	}
	*s = SpanID(v)
	return nil
}

// Trace is the request-scoped trace identity carried through
// context.Context and across process boundaries: the trace ID shared by
// every span of the request, the current (root or parent) span ID, and the
// head-sampling decision, which propagates so a caller's decision to retain
// a trace is honored by every process the request passes through.
type Trace struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the W3C "sampled" flag: the request was head-sampled for
	// full span-tree retention.
	Sampled bool
}

// Valid reports whether both IDs are non-zero.
func (tr Trace) Valid() bool { return !tr.TraceID.IsZero() && tr.SpanID != 0 }

// traceIDBase seeds process-unique ID generation: a random 128-bit base read
// once at init (crypto/rand, falling back to the clock), advanced by an
// atomic counter per NewTrace, so IDs are unique within the process and
// collide across processes only with ~2^-64 probability.
var (
	traceIDHi  uint64
	traceIDLo  uint64
	traceIDCtr atomic.Uint64
	spanIDCtr  atomic.Uint64
)

func init() {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[0:], uint64(time.Now().UnixNano()))
		binary.LittleEndian.PutUint64(b[8:], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(b[16:], uint64(time.Now().UnixNano())*0xbf58476d1ce4e5b9)
	}
	traceIDHi = binary.LittleEndian.Uint64(b[0:])
	traceIDLo = binary.LittleEndian.Uint64(b[8:])
	if traceIDHi == 0 {
		traceIDHi = 1 // the all-zero trace ID is invalid
	}
	spanIDCtr.Store(binary.LittleEndian.Uint64(b[16:]) | 1)
}

// NewTraceID returns a fresh process-unique, non-zero trace ID.
func NewTraceID() TraceID {
	return TraceID{Hi: traceIDHi, Lo: traceIDLo + traceIDCtr.Add(1)}
}

// nextSpanID returns a fresh process-unique, non-zero span ID. Span IDs are
// shared with SpanRecord.ID, so spans from different requests never collide
// in a shared sink.
func nextSpanID() uint64 {
	for {
		if id := spanIDCtr.Add(1); id != 0 {
			return id
		}
	}
}

// NewTrace returns a fresh trace identity: new trace ID, new span ID, not
// head-sampled.
func NewTrace() Trace {
	return Trace{TraceID: NewTraceID(), SpanID: SpanID(nextSpanID())}
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

// ParseTraceparent parses a W3C traceparent string, rejecting malformed
// input: wrong field count or lengths, uppercase or non-hex digits, an
// unsupported version, or all-zero trace/span IDs.
func ParseTraceparent(s string) (Trace, error) {
	// Fixed layout: 2+1+32+1+16+1+2 = 55 bytes, dashes at 2, 35, 52.
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return Trace{}, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	if s[:2] != "00" {
		return Trace{}, fmt.Errorf("obs: unsupported traceparent version %q", s[:2])
	}
	tid, err := parseTraceID(s[3:35])
	if err != nil {
		return Trace{}, err
	}
	sid, err := parseSpanID(s[36:52])
	if err != nil {
		return Trace{}, err
	}
	flags, err := parseHexField(s[53:55])
	if err != nil {
		return Trace{}, fmt.Errorf("obs: malformed traceparent flags %q", s[53:55])
	}
	return Trace{TraceID: tid, SpanID: sid, Sampled: flags&1 != 0}, nil
}

func parseTraceID(s string) (TraceID, error) {
	if len(s) != 32 {
		return TraceID{}, fmt.Errorf("obs: trace ID %q is not 32 hex digits", s)
	}
	hi, err1 := parseHexField(s[:16])
	lo, err2 := parseHexField(s[16:])
	if err1 != nil || err2 != nil {
		return TraceID{}, fmt.Errorf("obs: trace ID %q is not lowercase hex", s)
	}
	id := TraceID{Hi: hi, Lo: lo}
	if id.IsZero() {
		return TraceID{}, fmt.Errorf("obs: all-zero trace ID")
	}
	return id, nil
}

func parseSpanID(s string) (SpanID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("obs: span ID %q is not 16 hex digits", s)
	}
	v, err := parseHexField(s)
	if err != nil {
		return 0, fmt.Errorf("obs: span ID %q is not lowercase hex", s)
	}
	if v == 0 {
		return 0, fmt.Errorf("obs: all-zero span ID")
	}
	return SpanID(v), nil
}

// parseHexField parses fixed-width lowercase hex (the W3C format forbids
// uppercase digits, which strconv would otherwise accept).
func parseHexField(s string) (uint64, error) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return 0, strconv.ErrSyntax
		}
	}
	return strconv.ParseUint(s, 16, 64)
}

// traceKey keys the Trace stored in a context.
type traceKey struct{}

// ContextWithTrace returns a context carrying tr; requests started under it
// (Observer.StartRequest) join the trace instead of minting a new ID.
func ContextWithTrace(ctx context.Context, tr Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace carried by ctx, if any.
func TraceFrom(ctx context.Context) (Trace, bool) {
	tr, ok := ctx.Value(traceKey{}).(Trace)
	return tr, ok
}
