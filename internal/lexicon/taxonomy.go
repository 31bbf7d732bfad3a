package lexicon

import "slices"

// Taxonomy is the IS-A concept graph behind the conceptual similarity of
// §3.1: in addition to the individual meaning of words it records their
// nature, e.g. pizza IS-A food, so "amazing pizza" can be matched to the
// index tag "good food".
//
// Precompute memoizes every known concept's hypernym chain and depth; with
// the memo in place Ancestors, Depth, LCA, and WuPalmer are allocation-free,
// which is what keeps the Eq. 1 index build's similarity scans off the heap.
// Any AddIsA invalidates the memo (queries fall back to the walking paths)
// until Precompute runs again.
type Taxonomy struct {
	parent map[string]string
	// chains and depth are the Precompute memo: the full hypernym chain
	// (starting with the concept itself) and root distance of every concept
	// appearing anywhere in the graph. Both nil until Precompute.
	chains map[string][]string
	depth  map[string]int
}

// NewTaxonomy returns an empty taxonomy.
func NewTaxonomy() *Taxonomy {
	return &Taxonomy{parent: make(map[string]string)}
}

// AddIsA records child IS-A parent. Re-adding overwrites the previous parent.
func (t *Taxonomy) AddIsA(child, parent string) {
	t.parent[child] = parent
	t.chains, t.depth = nil, nil // invalidate memoized chains and depths
}

// Parent returns the direct hypernym of c, or "" when c is a root or unknown.
func (t *Taxonomy) Parent(c string) string { return t.parent[c] }

// Concepts returns every concept of the graph, children and parents alike,
// in ascending order.
func (t *Taxonomy) Concepts() []string {
	seen := make(map[string]struct{}, 2*len(t.parent))
	for child, parent := range t.parent {
		seen[child] = struct{}{}
		seen[parent] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// Precompute memoizes the hypernym chain and depth of every concept in the
// graph — children and parents alike, so every element of every chain is
// covered. Call it after the last AddIsA; subsequent similarity queries
// then allocate nothing.
func (t *Taxonomy) Precompute() {
	t.chains, t.depth = nil, nil // force the walking paths below
	chains := make(map[string][]string, 2*len(t.parent))
	depth := make(map[string]int, 2*len(t.parent))
	add := func(c string) {
		if _, ok := chains[c]; ok {
			return
		}
		ch := t.Ancestors(c)
		chains[c] = ch
		depth[c] = len(ch) - 1
	}
	for child, parent := range t.parent {
		add(child)
		add(parent)
	}
	t.chains, t.depth = chains, depth
}

// Ancestors returns the hypernym chain of c starting with c itself.
// Cycles are broken defensively. After Precompute the chain of a known
// concept is the shared memoized slice — callers must not mutate it.
func (t *Taxonomy) Ancestors(c string) []string {
	if t.chains != nil {
		if ch, ok := t.chains[c]; ok {
			return ch
		}
	}
	var out []string
	seen := make(map[string]bool)
	for c != "" && !seen[c] {
		seen[c] = true
		out = append(out, c)
		c = t.parent[c]
	}
	return out
}

// Depth returns the number of IS-A hops from c to its root (root depth 0).
// Unknown concepts have depth 0.
func (t *Taxonomy) Depth(c string) int {
	if t.depth != nil && c != "" {
		return t.depth[c] // unknown concepts are absent and read back 0
	}
	return len(t.Ancestors(c)) - 1
}

// LCA returns the lowest common ancestor of a and b, or "" when their chains
// are disjoint (including when either is unknown to the taxonomy).
func (t *Taxonomy) LCA(a, b string) string {
	if t.chains != nil {
		ca, okA := t.chains[a]
		cb, okB := t.chains[b]
		if !okA || !okB {
			// An unknown concept's chain is just itself, and it cannot
			// appear inside any memoized chain (every chain element is a
			// memo key), so the only possible common ancestor is a == b.
			if a == b && a != "" {
				return a
			}
			return ""
		}
		// First element of b's chain present in a's chain — the same scan
		// order as the map-based fallback below, without the map.
		for _, c := range cb {
			for _, x := range ca {
				if x == c {
					return c
				}
			}
		}
		return ""
	}
	onA := make(map[string]bool)
	for _, c := range t.Ancestors(a) {
		onA[c] = true
	}
	for _, c := range t.Ancestors(b) {
		if onA[c] {
			return c
		}
	}
	return ""
}

// WuPalmer returns the Wu–Palmer similarity between concepts a and b:
// 2·depth(lca) / (depth(a)+depth(b)), in [0,1]. Identical concepts score 1;
// concepts with no common ancestor score 0.
func (t *Taxonomy) WuPalmer(a, b string) float64 {
	if a == b && a != "" {
		return 1
	}
	lca := t.LCA(a, b)
	if lca == "" {
		return 0
	}
	da, db, dl := t.Depth(a), t.Depth(b), t.Depth(lca)
	denom := float64(da + db)
	if denom == 0 {
		return 1 // both are the shared root
	}
	return 2 * float64(dl) / denom
}

// DefaultTaxonomy builds the built-in concept graph from all three domains:
// every aspect variant IS-A its feature's canonical aspect, every opinion
// variant IS-A its feature's canonical opinion, canonical opinions of the
// same polarity share a polarity concept, and canonical aspects are grouped
// under coarse categories (offering, people, place, value, facility).
func DefaultTaxonomy() *Taxonomy {
	t := NewTaxonomy()

	coarse := map[string]string{
		// restaurants
		"food": "offering", "cooking": "offering", "menu": "offering",
		"ingredients": "offering", "portions": "offering", "cuisine": "offering",
		"wine list": "offering", "delivery": "offering",
		"staff": "people", "owner": "people",
		"ambiance": "place", "atmosphere": "place", "decor": "place",
		"view": "place", "seating": "place", "plates": "place",
		"prices": "value", "service": "people",
		// electronics
		"screen": "hardware", "battery": "hardware", "keyboard": "hardware",
		"processor": "hardware", "build": "hardware", "fans": "hardware",
		"speakers": "hardware", "ports": "hardware", "webcam": "hardware",
		"software": "offering", "support": "people", "price": "value",
		// hotels
		"rooms": "facility", "beds": "facility", "floors": "facility",
		"pool": "facility", "wifi": "facility", "breakfast": "offering",
		"location": "place", "reception": "people", "rates": "value",
	}
	for child, parent := range coarse {
		t.AddIsA(child, parent)
	}
	for _, top := range []string{"offering", "people", "place", "value", "facility", "hardware"} {
		t.AddIsA(top, "entity-quality")
	}

	// addSafe links child IS-A parent with first-writer-wins semantics and a
	// cycle guard: words shared across domains ("delicious" is canonical in
	// restaurants and a variant in hotels) keep their first mapping, and a
	// link that would close a cycle is dropped so every chain terminates.
	addSafe := func(child, parent string) {
		if child == parent {
			return
		}
		if _, exists := t.parent[child]; exists {
			return
		}
		for _, a := range t.Ancestors(parent) {
			if a == child {
				return
			}
		}
		t.AddIsA(child, parent)
	}
	for _, d := range []*Domain{Restaurants(), Electronics(), Hotels()} {
		for _, f := range d.Features {
			// Canonical terms first so variants hang off a rooted chain.
			if _, ok := t.parent[f.Opinion]; !ok {
				t.AddIsA(f.Opinion, "positive")
			}
			for _, a := range f.AspectSyns {
				addSafe(a, f.Aspect)
			}
			for _, o := range f.PosOps {
				addSafe(o, f.Opinion)
			}
			for _, o := range f.NegOps {
				addSafe(o, "negative")
			}
		}
	}
	t.AddIsA("positive", "polarity")
	t.AddIsA("negative", "polarity")
	t.Precompute()
	return t
}
