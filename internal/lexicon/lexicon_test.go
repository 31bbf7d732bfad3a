package lexicon

import (
	"strings"
	"testing"
)

func TestRestaurantsHas18Features(t *testing.T) {
	d := Restaurants()
	if len(d.Features) != 18 {
		t.Fatalf("paper uses 18 subjective features of [39], got %d", len(d.Features))
	}
	for i, f := range d.Features {
		if f.ID != i {
			t.Errorf("feature %q has ID %d, want %d", f.Name, f.ID, i)
		}
		if f.Name != f.Opinion+" "+f.Aspect {
			t.Errorf("feature name %q must be opinion+aspect (%q %q)", f.Name, f.Opinion, f.Aspect)
		}
		if len(f.AspectSyns) == 0 || len(f.PosOps) == 0 || len(f.NegOps) == 0 {
			t.Errorf("feature %q missing variants", f.Name)
		}
	}
}

func TestDomainsWellFormed(t *testing.T) {
	for _, d := range []*Domain{Restaurants(), Electronics(), Hotels()} {
		t.Run(d.Name, func(t *testing.T) {
			if len(d.Features) == 0 || len(d.Entities) == 0 || len(d.Fillers) == 0 {
				t.Fatal("domain missing data")
			}
			seen := map[string]bool{}
			for i, f := range d.Features {
				if f.ID != i {
					t.Errorf("feature %d has ID %d", i, f.ID)
				}
				if seen[f.Name] {
					t.Errorf("duplicate feature name %q", f.Name)
				}
				seen[f.Name] = true
				for _, v := range append(append(append([]string{}, f.AspectSyns...), f.PosOps...), f.NegOps...) {
					if v != strings.ToLower(v) {
						t.Errorf("variant %q must be lowercase (tokenizer lowercases)", v)
					}
					if strings.TrimSpace(v) == "" {
						t.Errorf("empty variant in %q", f.Name)
					}
				}
				hasCanonAspect := false
				for _, v := range f.AspectSyns {
					if v == f.Aspect {
						hasCanonAspect = true
					}
				}
				if !hasCanonAspect {
					t.Errorf("feature %q: canonical aspect %q not in AspectSyns", f.Name, f.Aspect)
				}
				hasCanonOp := false
				for _, v := range f.PosOps {
					if v == f.Opinion {
						hasCanonOp = true
					}
				}
				if !hasCanonOp {
					t.Errorf("feature %q: canonical opinion %q not in PosOps", f.Name, f.Opinion)
				}
			}
		})
	}
}

func TestFeatureByName(t *testing.T) {
	d := Restaurants()
	f, ok := d.FeatureByName("romantic ambiance")
	if !ok || f.Aspect != "ambiance" || f.Opinion != "romantic" {
		t.Fatalf("FeatureByName: got %+v ok=%v", f, ok)
	}
	if _, ok := d.FeatureByName("nonexistent"); ok {
		t.Fatal("unexpected feature")
	}
}

func TestVariantsDeduped(t *testing.T) {
	d := Restaurants()
	asp := d.AspectVariants()
	seen := map[string]bool{}
	for _, a := range asp {
		if seen[a] {
			t.Fatalf("duplicate aspect variant %q", a)
		}
		seen[a] = true
	}
	// "la carte" appears in two features; must appear once here.
	if !seen["la carte"] {
		t.Fatal("idiom 'la carte' missing from aspect variants (§4.2)")
	}
	ops := d.OpinionVariants()
	if len(ops) == 0 {
		t.Fatal("no opinion variants")
	}
	opSeen := map[string]bool{}
	for _, o := range ops {
		if opSeen[o] {
			t.Fatalf("duplicate opinion variant %q", o)
		}
		opSeen[o] = true
	}
	if !opSeen["a killer"] {
		t.Fatal("idiom 'a killer' missing from opinion variants (§4.2)")
	}
}

func TestSynonyms(t *testing.T) {
	syns := Synonyms("delicious")
	if len(syns) == 0 {
		t.Fatal("expected synonyms for 'delicious'")
	}
	found := false
	for _, s := range syns {
		if s == "tasty" {
			found = true
		}
		if s == "delicious" {
			t.Fatal("a word must not be its own synonym")
		}
	}
	if !found {
		t.Fatalf("'tasty' should be a synonym of 'delicious': %v", syns)
	}
	if got := Synonyms("xylophone"); len(got) != 0 {
		t.Fatalf("unknown word should have no synonyms, got %v", got)
	}
}

func TestTaxonomyBasics(t *testing.T) {
	tax := NewTaxonomy()
	tax.AddIsA("pizza", "food")
	tax.AddIsA("food", "offering")
	if tax.Parent("pizza") != "food" {
		t.Fatal("Parent wrong")
	}
	anc := tax.Ancestors("pizza")
	if len(anc) != 3 || anc[0] != "pizza" || anc[2] != "offering" {
		t.Fatalf("Ancestors: %v", anc)
	}
	if tax.Depth("pizza") != 2 || tax.Depth("offering") != 0 {
		t.Fatalf("Depth: %d %d", tax.Depth("pizza"), tax.Depth("offering"))
	}
	if tax.LCA("pizza", "food") != "food" {
		t.Fatal("LCA(pizza, food) should be food")
	}
}

func TestWuPalmer(t *testing.T) {
	tax := NewTaxonomy()
	tax.AddIsA("pizza", "food")
	tax.AddIsA("pasta", "food")
	tax.AddIsA("food", "offering")
	tax.AddIsA("staff", "people")

	if got := tax.WuPalmer("pizza", "pizza"); got != 1 {
		t.Fatalf("identical concepts: %v", got)
	}
	sib := tax.WuPalmer("pizza", "pasta") // lca food depth 1, both depth 2 -> 2/4
	if sib != 0.5 {
		t.Fatalf("siblings: got %v, want 0.5", sib)
	}
	if got := tax.WuPalmer("pizza", "staff"); got != 0 {
		t.Fatalf("disjoint roots: got %v", got)
	}
	child := tax.WuPalmer("pizza", "food") // lca food depth 1 -> 2*1/(2+1)
	if diff := child - 2.0/3.0; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("parent-child: got %v", child)
	}
}

func TestDefaultTaxonomyConceptualSimilarity(t *testing.T) {
	tax := DefaultTaxonomy()
	// pizza IS-A food must hold (§3.1 example).
	found := false
	for _, a := range tax.Ancestors("pizza") {
		if a == "food" {
			found = true
		}
	}
	if !found {
		t.Fatal("pizza must be a kind of food")
	}
	// Sibling aspects of the same feature should be more similar than
	// aspects of unrelated features.
	same := tax.WuPalmer("pizza", "pasta")
	diff := tax.WuPalmer("pizza", "staff")
	if same <= diff {
		t.Fatalf("WuPalmer(pizza,pasta)=%v should exceed WuPalmer(pizza,staff)=%v", same, diff)
	}
}

func TestDefaultTaxonomyTerminates(t *testing.T) {
	// The generated graph contains a known benign 2-cycle
	// (atmosphere <-> ambiance); Ancestors must still terminate everywhere.
	tax := DefaultTaxonomy()
	for _, d := range []*Domain{Restaurants(), Electronics(), Hotels()} {
		for _, w := range append(d.AspectVariants(), d.OpinionVariants()...) {
			if anc := tax.Ancestors(w); len(anc) > 10 {
				t.Fatalf("suspiciously deep chain for %q: %v", w, anc)
			}
		}
	}
}

func TestTaxonomyHas(t *testing.T) {
	tax := NewTaxonomy()
	tax.AddIsA("pizza", "food")
	if !tax.Has("pizza") || !tax.Has("food") {
		t.Fatal("Has should see both children and parents")
	}
	if tax.Has("granite") {
		t.Fatal("unknown concept reported present")
	}
}

// FeatureByName returns the feature whose canonical tag equals name.
func (d *Domain) FeatureByName(name string) (Feature, bool) {
	for _, f := range d.Features {
		if f.Name == name {
			return f, true
		}
	}
	return Feature{}, false
}

// AspectVariants returns every aspect surface form of every feature, deduped.
func (d *Domain) AspectVariants() []string {
	return dedup(d.collect(func(f Feature) []string { return f.AspectSyns }))
}

// OpinionVariants returns every opinion surface form (positive and negative).
func (d *Domain) OpinionVariants() []string {
	return dedup(d.collect(func(f Feature) []string {
		out := append([]string(nil), f.PosOps...)
		return append(out, f.NegOps...)
	}))
}

// Has reports whether the taxonomy knows concept c (as a child or a parent).
func (t *Taxonomy) Has(c string) bool {
	if _, ok := t.parent[c]; ok {
		return true
	}
	for _, p := range t.parent {
		if p == c {
			return true
		}
	}
	return false
}

func (d *Domain) collect(get func(Feature) []string) []string {
	var out []string
	for _, f := range d.Features {
		out = append(out, get(f)...)
	}
	return out
}
