package tokenize

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"The food is delicious!", []string{"the", "food", "is", "delicious", "!"}},
		{"Vue du Monde", []string{"vue", "du", "monde"}},
		{"Kazuki's place", []string{"kazuki's", "place"}},
		{"a, b", []string{"a", ",", "b"}},
		{"", nil},
		{"   ", nil},
		{"don't stop", []string{"don't", "stop"}},
		{"it's 5 stars", []string{"it's", "5", "stars"}},
		{"end.'", []string{"end", ".", "'"}},
	}
	for _, c := range cases {
		if got := Words(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSentences(t *testing.T) {
	got := Sentences("The staff is friendly. The decor is beautiful! Is it open?")
	want := []string{"The staff is friendly.", "The decor is beautiful!", "Is it open?"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sentences: got %v", got)
	}
	if got := Sentences("no terminator"); len(got) != 1 || got[0] != "no terminator" {
		t.Fatalf("trailing sentence: got %v", got)
	}
	if got := Sentences(""); got != nil {
		t.Fatalf("empty: got %v", got)
	}
}

func TestVocabSpecials(t *testing.T) {
	v := NewVocab()
	if v.ID(PadToken) != 0 {
		t.Fatal("[PAD] must be id 0")
	}
	if v.ID(UnkToken) != 1 {
		t.Fatal("[UNK] must be id 1")
	}
	if v.ID("never-seen") != 1 {
		t.Fatal("unknown token must map to [UNK]")
	}
	if v.Len() != 5 {
		t.Fatalf("fresh vocab size = %d", v.Len())
	}
}

func TestVocabRoundTrip(t *testing.T) {
	v := NewVocab()
	words := []string{"food", "staff", "delicious"}
	v.AddAll(words)
	for _, w := range words {
		if v.Token(v.ID(w)) != w {
			t.Fatalf("round trip failed for %q", w)
		}
	}
	// Adding twice keeps the same id.
	id := v.Add("food")
	if id2 := v.Add("food"); id2 != id {
		t.Fatal("Add must be idempotent")
	}
	ids := v.Encode([]string{"food", "zzz"})
	if ids[0] != v.ID("food") || ids[1] != v.ID(UnkToken) {
		t.Fatalf("Encode: got %v", ids)
	}
	if v.Token(-1) != UnkToken || v.Token(9999) != UnkToken {
		t.Fatal("out-of-range Token must be [UNK]")
	}
}

func TestLabelStringRoundTrip(t *testing.T) {
	for _, l := range []Label{O, BAS, IAS, BOP, IOP} {
		got, err := ParseLabel(l.String())
		if err != nil || got != l {
			t.Fatalf("round trip %v failed: %v %v", l, got, err)
		}
	}
	if _, err := ParseLabel("B-XX"); err == nil {
		t.Fatal("expected error for unknown label")
	}
}

func TestValidTransition(t *testing.T) {
	// I-AS must follow B-AS or I-AS (§4.1).
	if ValidTransition(O, IAS) || ValidTransition(BOP, IAS) || ValidTransition(IOP, IAS) {
		t.Fatal("I-AS may only follow B-AS/I-AS")
	}
	if !ValidTransition(BAS, IAS) || !ValidTransition(IAS, IAS) {
		t.Fatal("I-AS must be allowed after B-AS/I-AS")
	}
	if ValidTransition(BAS, IOP) {
		t.Fatal("I-OP may not follow B-AS")
	}
	if !ValidTransition(O, BAS) || !ValidTransition(IOP, O) {
		t.Fatal("B-*/O transitions must be free")
	}
	if ValidStart(IAS) || ValidStart(IOP) || !ValidStart(O) || !ValidStart(BAS) {
		t.Fatal("ValidStart wrong")
	}
}

func TestSpansDecoding(t *testing.T) {
	labels := []Label{O, BAS, IAS, O, BOP, O, BAS, BOP, IOP}
	spans := Spans(labels)
	want := []Span{
		{AspectSpan, 1, 3},
		{OpinionSpan, 4, 5},
		{AspectSpan, 6, 7},
		{OpinionSpan, 7, 9},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("Spans: got %v, want %v", spans, want)
	}
}

func TestSpansLenientOnStrayI(t *testing.T) {
	// I-AS with no preceding B-AS should still open a chunk.
	spans := Spans([]Label{IAS, IAS, O, IOP})
	want := []Span{{AspectSpan, 0, 2}, {OpinionSpan, 3, 4}}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("lenient Spans: got %v", spans)
	}
	// Kind switch without B should split chunks.
	spans = Spans([]Label{BAS, IOP})
	want = []Span{{AspectSpan, 0, 1}, {OpinionSpan, 1, 2}}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("kind-switch Spans: got %v", spans)
	}
}

func TestSpanText(t *testing.T) {
	toks := []string{"the", "creative", "cooking", "rocks"}
	sp := Span{AspectSpan, 1, 3}
	if got := sp.Text(toks); got != "creative cooking" {
		t.Fatalf("Text: got %q", got)
	}
	if (Span{AspectSpan, 3, 10}).Text(toks) != "rocks" {
		t.Fatal("Text must clamp to token slice")
	}
}

func TestLabelsFromSpansRoundTrip(t *testing.T) {
	// Property: for well-formed random span sets, Spans(LabelsFromSpans(..)) == spans.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(15)
		var spans []Span
		pos := 0
		for pos < n-2 {
			gap := rng.Intn(3) // >=0 gap; adjacent same-kind spans would merge, so force gap>=1 after first
			if len(spans) > 0 && gap == 0 {
				gap = 1
			}
			start := pos + gap
			ln := 1 + rng.Intn(3)
			if start+ln > n {
				break
			}
			kind := AspectSpan
			if rng.Intn(2) == 1 {
				kind = OpinionSpan
			}
			// adjacent same-kind spans are indistinguishable only if I follows;
			// B- labels restart chunks so adjacency is fine. But zero-gap same
			// kind yields B,B which decodes into two spans — OK.
			spans = append(spans, Span{kind, start, start + ln})
			pos = start + ln
		}
		labels := LabelsFromSpans(n, spans)
		got := Spans(labels)
		if len(spans) == 0 {
			if len(got) != 0 {
				t.Fatalf("expected no spans, got %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, spans) {
			t.Fatalf("round trip failed: want %v, got %v (labels %v)", spans, got, labels)
		}
	}
}

func TestWordsNeverEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Words(s) {
			if tok == "" || strings.ContainsAny(tok, " \t\n") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSentencesCoverInput(t *testing.T) {
	// Property: rejoining sentences preserves all non-space characters in order.
	f := func(s string) bool {
		joined := strings.Join(Sentences(s), "")
		strip := func(x string) string {
			return strings.Map(func(r rune) rune {
				if unicode.IsSpace(r) {
					return -1
				}
				return r
			}, x)
		}
		return strip(joined) == strip(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ParseLabel converts an IOB name to a Label.
func ParseLabel(s string) (Label, error) {
	switch s {
	case "O":
		return O, nil
	case "B-AS":
		return BAS, nil
	case "I-AS":
		return IAS, nil
	case "B-OP":
		return BOP, nil
	case "I-OP":
		return IOP, nil
	}
	return O, fmt.Errorf("tokenize: unknown IOB label %q", s)
}

// LabelsFromSpans builds an IOB sequence of length n from chunks. Overlapping
// spans are applied in order, later spans overwriting earlier ones.
func LabelsFromSpans(n int, spans []Span) []Label {
	labels := make([]Label, n)
	for _, sp := range spans {
		b, i := BAS, IAS
		if sp.Kind == OpinionSpan {
			b, i = BOP, IOP
		}
		for t := sp.Start; t < sp.End && t < n; t++ {
			if t == sp.Start {
				labels[t] = b
			} else {
				labels[t] = i
			}
		}
	}
	return labels
}

// Token returns the token for id, or [UNK] when out of range.
func (v *Vocab) Token(id int) string {
	if id < 0 || id >= len(v.tokens) {
		return UnkToken
	}
	return v.tokens[id]
}
