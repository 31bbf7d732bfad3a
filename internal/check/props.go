package check

import (
	"fmt"
	"strings"

	"saccs/internal/index"
	"saccs/internal/search"
)

// Property / metamorphic checks: semantic invariants from the paper that must
// hold on every corpus, checked on random seeded worlds.

// floatSlack absorbs the last-ulp rounding difference between two
// mathematically ordered float computations (the monotonicity properties
// compare quantities computed by different expressions, unlike the oracles'
// bit-identical replays).
const floatSlack = 1e-12

// idSet projects postings onto their entity-ID set.
func idSet(entries []index.Entry) map[string]float64 {
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		out[e.EntityID] = e.Degree
	}
	return out
}

// ThetaFilterMonotonic checks Algorithm 1's unknown-tag union: raising
// θ_filter never adds a result and never raises a surviving entity's score
// (every contributing term s·deg is positive, so dropping terms can only
// shrink the sum).
func ThetaFilterMonotonic(seed int64, trials int) error {
	g := NewGen(seed)
	ix := buildIndex(g.Tags(14), g.Entities(40), 0.55, 0)
	for i := 0; i < trials; i++ {
		tag := g.Tag()
		lo := 0.1 + 0.5*g.rng.Float64()
		hi := lo + (0.99-lo)*g.rng.Float64()
		loSet := idSet(ix.Resolve(tag, lo))
		for _, e := range ix.Resolve(tag, hi) {
			degLo, ok := loSet[e.EntityID]
			if !ok {
				return fmt.Errorf("θ_filter monotonicity (seed %d, trial %d): tag %q: raising θ %.3f→%.3f added entity %s",
					seed, i, tag, lo, hi, e.EntityID)
			}
			if e.Degree > degLo+floatSlack {
				return fmt.Errorf("θ_filter monotonicity (seed %d, trial %d): tag %q entity %s: score rose %.17g→%.17g when θ rose %.3f→%.3f",
					seed, i, tag, e.EntityID, degLo, e.Degree, lo, hi)
			}
		}
	}
	return nil
}

// ThetaIndexMonotonic checks Eq. 1's review-tag threshold: raising θ_index
// shrinks each entity's matched-mention set, so an entity absent from a tag's
// posting list at a low threshold can never appear at a higher one.
func ThetaIndexMonotonic(seed int64, trials int) error {
	g := NewGen(seed)
	tags := g.Tags(10)
	ents := g.Entities(36)
	for i := 0; i < trials; i++ {
		lo := 0.2 + 0.4*g.rng.Float64()
		hi := lo + (0.95-lo)*g.rng.Float64()
		ixLo := buildIndex(tags, ents, lo, 0)
		ixHi := buildIndex(tags, ents, hi, 0)
		for _, tag := range tags {
			loSet := idSet(ixLo.Lookup(tag))
			for _, e := range ixHi.Lookup(tag) {
				if _, ok := loSet[e.EntityID]; !ok {
					return fmt.Errorf("θ_index monotonicity (seed %d, trial %d): tag %q: raising θ %.3f→%.3f added posting %s",
						seed, i, tag, lo, hi, e.EntityID)
				}
			}
		}
	}
	return nil
}

// StrengthenMonotonic checks Eq. 1's degree-of-truth monotonicity: appending
// a review mention identical to the tag (similarity 1, no polarity conflict)
// to one entity never lowers that entity's degree for the tag — the mean
// similarity, the support ratio, and the mention-rate factor all move up or
// stay put.
func StrengthenMonotonic(seed int64, trials int) error {
	g := NewGen(seed)
	for i := 0; i < trials; i++ {
		tag := g.Tag()
		ents := g.Entities(24)
		pick := g.rng.Intn(len(ents))
		before := buildIndex([]string{tag}, ents, 0.55, 0)
		degBefore := idSet(before.Lookup(tag))[ents[pick].EntityID]

		strengthened := make([]index.EntityReviews, len(ents))
		copy(strengthened, ents)
		strengthened[pick].Tags = append(append([]string(nil), ents[pick].Tags...), tag)
		after := buildIndex([]string{tag}, strengthened, 0.55, 0)
		degAfter := idSet(after.Lookup(tag))[ents[pick].EntityID]

		if degAfter < degBefore-floatSlack {
			return fmt.Errorf("degree monotonicity (seed %d, trial %d): tag %q entity %s: adding an exact mention lowered the degree %.17g→%.17g",
				seed, i, tag, ents[pick].EntityID, degBefore, degAfter)
		}
	}
	return nil
}

// RankPermutationInvariant checks that Algorithm 1's ranking is a total,
// input-order-independent order: permuting the API result list and the query
// tag list changes neither the ranked IDs nor their scores, the output is a
// permutation of the API results, and no entity appears twice.
func RankPermutationInvariant(seed int64, trials int) error {
	g := NewGen(seed)
	tags := g.Tags(12)
	ents := g.Entities(40)
	ix := buildIndex(tags, ents, 0.55, 0)
	rk := &search.Ranker{Snap: ix.Current(), ThetaFilter: 0.45, Agg: search.MeanAgg}
	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = e.EntityID
	}
	for i := 0; i < trials; i++ {
		api := g.subset(ids)
		qt := []string{g.pick(tags), g.pick(tags), g.Tag()}
		base := rk.Rank(api, qt)

		if len(base) != len(api) {
			return fmt.Errorf("rank totality (seed %d, trial %d): %d API results ranked into %d entries",
				seed, i, len(api), len(base))
		}
		seen := make(map[string]bool, len(base))
		for _, s := range base {
			if seen[s.EntityID] {
				return fmt.Errorf("rank totality (seed %d, trial %d): entity %s ranked twice", seed, i, s.EntityID)
			}
			seen[s.EntityID] = true
		}
		for _, id := range api {
			if !seen[id] {
				return fmt.Errorf("rank totality (seed %d, trial %d): API result %s missing from ranking", seed, i, id)
			}
		}

		perm := rk.Rank(g.shuffled(api), g.shuffled(qt))
		if err := DiffScored(fmt.Sprintf("rank permutation (seed %d, trial %d)", seed, i), base, perm); err != nil {
			return err
		}
	}
	return nil
}

// SlotWordBoundary checks the slot filler's word-boundary guarantee: every
// filled slot value occurs in the utterance as a whole word (split on
// non-alphanumeric runes), never as a substring of a longer word.
func SlotWordBoundary(seed int64, trials int) error {
	g := NewGen(seed)
	for i := 0; i < trials; i++ {
		utt := g.Utterance()
		in := search.ParseUtterance(utt)
		words := map[string]bool{}
		for _, w := range strings.FieldsFunc(strings.ToLower(utt), func(r rune) bool {
			return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
		}) {
			words[w] = true
		}
		for slot, val := range in.Slots {
			if !words[val] {
				return fmt.Errorf("slot word boundary (seed %d, trial %d): slot %s=%q filled but %q is not a whole word of %q",
					seed, i, slot, val, val, utt)
			}
		}
	}
	return nil
}
