package tokenize

import "fmt"

// Label is one of the five IOB classes of the SACCS tagging task (§4):
// L = {B-AS, I-AS, B-OP, I-OP, O}.
type Label uint8

// The label set, in the fixed order used by the CRF transition matrix.
const (
	O Label = iota // outside any aspect or opinion span
	BAS
	IAS
	BOP
	IOP
	NumLabels = 5
)

// String returns the canonical IOB name of l.
func (l Label) String() string {
	switch l {
	case O:
		return "O"
	case BAS:
		return "B-AS"
	case IAS:
		return "I-AS"
	case BOP:
		return "B-OP"
	case IOP:
		return "I-OP"
	}
	return fmt.Sprintf("Label(%d)", uint8(l))
}

// ValidTransition reports whether label b may follow label a in a well-formed
// IOB sequence: I-AS must follow B-AS or I-AS, and I-OP must follow B-OP or
// I-OP (the dependency the CRF layer is there to learn, §4.1).
func ValidTransition(a, b Label) bool {
	switch b {
	case IAS:
		return a == BAS || a == IAS
	case IOP:
		return a == BOP || a == IOP
	}
	return true
}

// ValidStart reports whether a well-formed sequence may begin with l.
func ValidStart(l Label) bool { return l != IAS && l != IOP }

// SpanKind distinguishes aspect from opinion chunks.
type SpanKind uint8

// Chunk kinds extracted from an IOB sequence.
const (
	AspectSpan SpanKind = iota
	OpinionSpan
)

func (k SpanKind) String() string {
	if k == AspectSpan {
		return "AS"
	}
	return "OP"
}

// Span is a half-open token range [Start, End) labeled as an aspect or
// opinion term. A multi-word span is a single term (§5 footnote 3).
type Span struct {
	Kind       SpanKind
	Start, End int
}

// Text joins the covered tokens with spaces.
func (s Span) Text(tokens []string) string {
	out := ""
	for i := s.Start; i < s.End && i < len(tokens); i++ {
		if out != "" {
			out += " "
		}
		out += tokens[i]
	}
	return out
}

// Spans decodes an IOB label sequence into aspect and opinion chunks.
// A stray I-AS/I-OP that does not continue a chunk of the same kind starts a
// new chunk (conventional lenient decoding, so model output is always usable).
func Spans(labels []Label) []Span {
	var spans []Span
	var cur *Span
	close := func() {
		if cur != nil {
			spans = append(spans, *cur)
			cur = nil
		}
	}
	for i, l := range labels {
		switch l {
		case BAS:
			close()
			cur = &Span{Kind: AspectSpan, Start: i, End: i + 1}
		case BOP:
			close()
			cur = &Span{Kind: OpinionSpan, Start: i, End: i + 1}
		case IAS:
			if cur != nil && cur.Kind == AspectSpan && cur.End == i {
				cur.End = i + 1
			} else {
				close()
				cur = &Span{Kind: AspectSpan, Start: i, End: i + 1}
			}
		case IOP:
			if cur != nil && cur.Kind == OpinionSpan && cur.End == i {
				cur.End = i + 1
			} else {
				close()
				cur = &Span{Kind: OpinionSpan, Start: i, End: i + 1}
			}
		default:
			close()
		}
	}
	close()
	return spans
}
