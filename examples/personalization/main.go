// Personalization: the §7 future-work extensions in action — user profiles
// that adapt ranking to standing preferences, fraudulent-review
// downweighting, and search-automaton typo routing for query tags.
package main

import (
	"context"
	"fmt"
	"sort"

	"saccs/internal/automaton"
	"saccs/internal/core"
	"saccs/internal/index"
	"saccs/internal/profile"
	"saccs/internal/search"
	"saccs/internal/sim"
	"saccs/internal/trust"
	"saccs/internal/yelp"
)

func main() {
	// The world's gold review tags stand in for extraction, isolating the
	// extensions from tagging noise; they enter the same producer and index
	// build the server uses.
	world := yelp.Generate(yelp.FastConfig())
	ctx := context.Background()
	gold, _ := core.EntityReviews(ctx, world.IDs(), world.Reviews(), (*yelp.Review).GoldTags)
	ix := index.New(sim.NewConceptual(), core.ThetaIndex)
	ix.Build(core.CanonicalTags(world.Domain), gold)
	snap := ix.Current()
	rk := search.Ranker{Snap: snap, ThetaFilter: core.ThetaFilter, Agg: search.MeanAgg}

	// --- user profiles -------------------------------------------------------
	fmt.Println("== user profiles ==")
	p := profile.New("alice", nil)
	for _, session := range [][]string{
		{"romantic ambiance"}, {"romantic ambiance", "cozy decor"}, {"quiet atmosphere"},
	} {
		p.Observe(session)
	}
	fmt.Printf("alice's standing preferences: %v\n", p.Preferences())

	plain, _ := rk.TopK(ctx, nil, search.NewCandidates(snap, world.IDs()), []string{"good food"}, 10)
	personal := p.Personalize(ix, plain, 0.4, 3)
	fmt.Println("query 'good food' — top 3 without / with personalization:")
	for i := 0; i < 3 && i < len(plain); i++ {
		fmt.Printf("  %d. %-18s | %s\n",
			i+1, world.Entity(plain[i].EntityID).Name, world.Entity(personal[i].EntityID).Name)
	}

	// --- fraudulent review detection ----------------------------------------
	fmt.Println("\n== fraudulent review detection ==")
	d := trust.NewDetector()
	reviews := map[string][]string{
		"r1":    {"delicious food", "friendly staff"},
		"r2":    {"tasty food", "nice staff"},
		"r3":    {"good food", "helpful staff"},
		"shill": {"bland food", "rude staff"}, // paid competitor review
	}
	// Sorted IDs, so the reports print in the same order on every run.
	ids := make([]string, 0, len(reviews))
	for id := range reviews {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sigs := make([]trust.ReviewSignals, 0, len(reviews))
	for _, id := range ids {
		sigs = append(sigs, trust.SignalsFromTags(id, reviews[id]))
	}
	for _, rep := range d.Analyze(sigs) {
		fmt.Printf("  %-6s agreement %+.2f  weight %.2f  suspicious=%v\n",
			rep.ReviewID, rep.Agreement, rep.Weight, rep.Suspicious)
	}
	kept := d.FilterTags(reviews)
	fmt.Printf("  tags surviving the filter: %d of 8\n", len(kept))

	// --- search automaton ----------------------------------------------------
	fmt.Println("\n== tag automaton (typo routing) ==")
	trie := automaton.New()
	trie.AddAll(ix.Tags())
	for _, q := range []string{"delicous food", "nice staf", "romantic amb"} {
		if fixed, ok := trie.Closest(q, 2); ok {
			fmt.Printf("  %-16q -> %q\n", q, fixed)
		} else if pref := trie.WithPrefix(q); len(pref) > 0 {
			fmt.Printf("  %-16q -> prefix completion %q\n", q, pref[0])
		} else {
			fmt.Printf("  %-16q -> no route\n", q)
		}
	}
}
