package sim

import (
	"fmt"
	"sync"
	"testing"

	"saccs/internal/lexicon"
	"saccs/internal/race"
)

// lexiconPhrases returns every surface form the three domain lexicons hold —
// canonical tags, aspects, opinions and all their variants — and the
// canonical tags alone.
func lexiconPhrases() (all, canonical []string) {
	seen := map[string]bool{}
	add := func(ps ...string) {
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				all = append(all, p)
			}
		}
	}
	for _, d := range []*lexicon.Domain{lexicon.Restaurants(), lexicon.Electronics(), lexicon.Hotels()} {
		for _, f := range d.Features {
			canonical = append(canonical, f.Name)
			add(f.Name, f.Aspect, f.Opinion)
			add(f.AspectSyns...)
			add(f.PosOps...)
			add(f.NegOps...)
		}
	}
	return all, canonical
}

// adversarial are the strings the prepared form could get wrong: no content
// word on one or both sides, negator runs, case folding that ToLower and
// EqualFold disagree on, whitespace Fields and TrimSpace must agree on, and
// words the taxonomy does not hold.
var adversarial = []string{
	"", " ", "\t\n", "\u00a0", "the", "The", "THE", " the ", "a", "the a", "very really",
	"not", "no never", "not not delicious food", "not no never bland food", "never not",
	"not the delicious food", "really not tasty", "not really tasty",
	"Delicious Food", "DELICIOUS FOOD", "  delicious   food  ", "delicious\u00a0food", "delicious\u2003food",
	"\u0130", "i", "I", "\u0130stanbul food", "istanbul food", "\u0131", "K", "\u212a", "\u01c5 food",
	"zorblax", "zorblax food", "delicious zorblax", "zorblax quux", "quux zorblax", "not zorblax",
	"wine list", "great wine list", "pizza", "amazing pizza", "good food", "bland food",
	"\xff", "\xff food", "delicious \xfe\xff", "positive", "negative", "polarity", "entity-quality",
}

func diffPair(t *testing.T, c *Conceptual, ref *Reference, a, b string) {
	t.Helper()
	var pa, pb Prepared
	c.Prepare(a, &pa)
	c.Prepare(b, &pb)
	gotBase, gotConflict := c.Score(&pa, &pb)
	wantBase, wantConflict := ref.Base(a, b)
	got := fmt.Sprintf("%.17g %v %.17g", gotBase, gotConflict, c.Phrase(a, b))
	want := fmt.Sprintf("%.17g %v %.17g", wantBase, wantConflict, ref.Phrase(a, b))
	if got != want {
		t.Fatalf("(%q, %q): prepared %s, reference %s", a, b, got, want)
	}
	if gotBase < 0 || gotBase > 1 {
		t.Fatalf("(%q, %q): score %v outside [0, 1]", a, b, gotBase)
	}
}

// TestPreparedMatchesReference is the bit-identity contract of the prepared
// kernel: Score and Phrase agree with the string-walking reference to the
// last digit on every lexicon phrase against every canonical tag, both ways
// round, and on the adversarial strings against everything.
func TestPreparedMatchesReference(t *testing.T) {
	c, ref := NewConceptual(), NewReference()
	all, canonical := lexiconPhrases()
	if len(all) < 400 || len(canonical) < 40 {
		t.Fatalf("fixture: %d phrases, %d canonical tags", len(all), len(canonical))
	}
	for _, a := range all {
		for _, b := range canonical {
			diffPair(t, c, ref, a, b)
			diffPair(t, c, ref, b, a)
		}
	}
	for _, a := range adversarial {
		for _, b := range adversarial {
			diffPair(t, c, ref, a, b)
		}
		for _, b := range all {
			diffPair(t, c, ref, a, b)
			diffPair(t, c, ref, b, a)
		}
	}
}

// TestLCATableMatchesTaxonomy diffs the compiled table against the taxonomy
// it was compiled from, every concept against every concept.
func TestLCATableMatchesTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic in the taxonomy; TestPreparedMatchesReference covers the lexicon")
	}
	c, tax := NewConceptual(), lexicon.DefaultTaxonomy()
	concepts := tax.Concepts()
	if c.n != len(concepts) || len(c.lca) != c.n*c.n {
		t.Fatalf("table is %d concepts, %d cells; taxonomy has %d", c.n, len(c.lca), len(concepts))
	}
	for i, a := range concepts {
		for j, b := range concepts {
			got := c.word(word{id: int32(i)}, word{id: int32(j)})
			want := 1.0
			if a != b {
				want = tax.WuPalmer(a, b)
			}
			if got != want {
				t.Fatalf("word(%q, %q) = %.17g, taxonomy %.17g", a, b, got, want)
			}
		}
	}
}

func TestPolarityMatchesReference(t *testing.T) {
	c, ref := NewConceptual(), NewReference()
	all, _ := lexiconPhrases()
	for _, p := range append(all, adversarial...) {
		if got, want := c.Polarity(p), ref.Polarity(p); got != want {
			t.Fatalf("Polarity(%q) = %d, reference %d", p, got, want)
		}
	}
}

// TestPrepareReusesStorage pins the query side of the scan: preparing into a
// warm Prepared and scoring it allocates nothing.
func TestPrepareReusesStorage(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	c := NewConceptual()
	var q, key Prepared
	c.Prepare("good food", &key)
	c.Prepare("not really delicious zorblax pizza", &q)
	var s float64
	allocs := testing.AllocsPerRun(100, func() {
		c.Prepare("amazing pizza", &q)
		s, _ = c.Score(&q, &key)
	})
	if allocs != 0 {
		t.Fatalf("warm Prepare + Score allocates %v times, want 0", allocs)
	}
	if s <= 0 {
		t.Fatalf("fixture: score %v", s)
	}
	// A reused Prepared carries nothing over from the longer phrase.
	var fresh Prepared
	c.Prepare("amazing pizza", &fresh)
	if a, _ := c.Score(&fresh, &key); a != s {
		t.Fatalf("reused %v, fresh %v", s, a)
	}
}

// TestPreparedConcurrentScore scores one shared set of prepared phrases from
// many goroutines: the measure and the records are read-only.
func TestPreparedConcurrentScore(t *testing.T) {
	c := NewConceptual()
	_, canonical := lexiconPhrases()
	keys := make([]Prepared, len(canonical))
	for i, k := range canonical {
		c.Prepare(k, &keys[i])
	}
	want := make([]float64, len(keys))
	var q Prepared
	c.Prepare("amazing pizza", &q)
	for i := range keys {
		want[i], _ = c.Score(&q, &keys[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var q Prepared
			for n := 0; n < 50; n++ {
				c.Prepare("amazing pizza", &q)
				for i := range keys {
					if got, _ := c.Score(&q, &keys[i]); got != want[i] {
						t.Errorf("key %d: %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestGenericMeasuresPrepareThenScore checks that the measures without a
// taxonomy keep the contract the index relies on: Phrase is Penalize(Score)
// of the prepared phrases, never a conflict, and a Blend's prepared phrase
// carries both of its measures' forms.
func TestGenericMeasuresPrepareThenScore(t *testing.T) {
	cos := &Cosine{Provider: fakeProvider{}}
	blend := &Blend{A: NewConceptual(), B: cos, W: 0.7}
	for _, m := range []Measure{cos, blend} {
		for _, pair := range [][2]string{{"delicious food", "bland food"}, {"good food", "not good food"}, {"", "the"}} {
			var pa, pb Prepared
			m.Prepare(pair[0], &pa)
			m.Prepare(pair[1], &pb)
			s, conflict := m.Score(&pa, &pb)
			if conflict {
				t.Fatalf("%T(%q, %q) reports a conflict", m, pair[0], pair[1])
			}
			if got := m.Phrase(pair[0], pair[1]); got != s {
				t.Fatalf("%T(%q, %q): Phrase %v, Score %v", m, pair[0], pair[1], got, s)
			}
		}
	}
	// The conceptual half of the blend is penalized inside it.
	ref := NewReference()
	w := blend.W
	want := w*ref.Phrase("delicious food", "bland food") + (1-w)*cos.Phrase("delicious food", "bland food")
	if got := blend.Phrase("delicious food", "bland food"); got != want {
		t.Fatalf("blend %v, want %v", got, want)
	}
}

func FuzzPreparedPhrase(f *testing.F) {
	for _, a := range adversarial[:24] {
		f.Add(a, "delicious food")
		f.Add("not bland pizza", a)
	}
	c, ref := NewConceptual(), NewReference()
	f.Fuzz(func(t *testing.T, a, b string) {
		diffPair(t, c, ref, a, b)
	})
}
