package postag

import "testing"

func TestClosedClass(t *testing.T) {
	cases := map[string]Tag{
		"the": Det, "and": Conj, "is": Verb, "not": Adv,
		"we": Pron, "in": Prep, "The": Det, // case-insensitive
	}
	for w, want := range cases {
		if got := TagWord(nil, w); got != want {
			t.Errorf("TagWord(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestSuffixRules(t *testing.T) {
	cases := map[string]Tag{
		"quickly":   Adv,
		"delicious": Adj,
		"helpful":   Adj,
		"attentive": Adj,
		"walking":   Verb,
		"walked":    Verb,
		"pizza":     Noun, // fallback
		".":         Punct,
		",":         Punct,
		"42":        Num,
	}
	for w, want := range cases {
		if got := TagWord(nil, w); got != want {
			t.Errorf("TagWord(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestLexiconOverridesEverything(t *testing.T) {
	lex := Lexicon{"delicious": Noun, "the": Noun}
	if got := TagWord(lex, "delicious"); got != Noun {
		t.Fatalf("lexicon override failed: %v", got)
	}
	if got := TagWord(lex, "the"); got != Noun {
		t.Fatalf("lexicon must beat closed class: %v", got)
	}
}

func TestTagSeq(t *testing.T) {
	got := TagSeq(nil, []string{"the", "staff", "is", "friendly", "."})
	want := []Tag{Det, Noun, Verb, Adj, Punct}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TagSeq[%d] = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestEmptyAndWeird(t *testing.T) {
	if got := TagWord(nil, ""); got != Noun {
		t.Fatalf("empty word: %v", got)
	}
	if got := TagWord(nil, "..."); got != Punct {
		t.Fatalf("ellipsis: %v", got)
	}
	if got := TagWord(nil, "a1b"); got == Num {
		t.Fatal("mixed alphanumeric must not be Num")
	}
}

func TestTagStrings(t *testing.T) {
	for _, tag := range []Tag{other, Det, Noun, Verb, Adj, Adv, Conj, Prep, Pron, Punct, Num} {
		if tag.String() == "" {
			t.Fatalf("empty name for %d", tag)
		}
	}
}
