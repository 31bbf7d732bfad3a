// Restaurants: the paper's running example at scale. Generates the synthetic
// Yelp world (Italian restaurants in Montreal), indexes it with the full
// neural pipeline, prints a Table 1-style snippet of the subjective tag
// index, and walks through multi-tag subjective queries — including the
// adaptive user-tag-history loop of the paper's Fig. 1.
package main

import (
	"fmt"

	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/nn"
	"saccs/internal/yelp"
)

func main() {
	fmt.Println("generating the synthetic Yelp world...")
	world := yelp.Generate(yelp.FastConfig())
	fmt.Printf("%d Italian restaurants in Montreal, %d reviews\n\n",
		len(world.Entities), world.ReviewCount())

	fmt.Println("training the extractor...")
	tg := core.TrainTagger(world.Domain, datasets.S1(datasets.Fast), datasets.Fast, true, 0.2, nn.Float64, nil)
	ex := &core.Extractor{Tagger: tg, Pairer: core.ServedPairer(world.Domain)}
	svc := core.NewService(world, ex, nil, core.DefaultConfig())
	fmt.Println("extracting subjective tags from all reviews...")
	svc.BuildEntityTags(core.NeuralSource{E: ex})
	svc.IndexTags([]string{"good food", "nice staff", "creative cooking", "fast delivery"})

	// Table 1: a snippet of the inverted index with degrees of truth.
	fmt.Println("\nTable 1-style index snippet:")
	for _, tag := range svc.Index.Tags() {
		entries := svc.Index.Lookup(tag)
		if len(entries) > 3 {
			entries = entries[:3]
		}
		fmt.Printf("  %-18s", tag)
		for _, e := range entries {
			fmt.Printf("  %s (%.2f)", world.Entity(e.EntityID).Name, e.Degree)
		}
		fmt.Println()
	}

	// A known-tag query.
	fmt.Println("\nquery: restaurants with nice staff and good food")
	for i, s := range svc.QueryTags(nil, []string{"nice staff", "good food"})[:5] {
		fmt.Printf("  %d. %-16s score %.2f\n", i+1, world.Entity(s.EntityID).Name, s.Score)
	}

	// An unknown tag triggers the adaptive loop (Fig. 1).
	fmt.Println("\nquery: romantic ambiance (not yet indexed)")
	res := svc.QueryTags(nil, []string{"romantic ambiance"})
	fmt.Printf("  answered in real time from %d similar index tags; history now holds %v\n",
		svc.Index.Len(), svc.History.Pending())
	if len(res) > 0 {
		fmt.Printf("  best guess: %s\n", world.Entity(res[0].EntityID).Name)
	}
	indexed := svc.IndexPending()
	fmt.Printf("  next indexing round added %v; index now has %d tags\n", indexed, svc.Index.Len())
	res = svc.QueryTags(nil, []string{"romantic ambiance"})
	if len(res) > 0 {
		fmt.Printf("  direct answer after indexing: %s (%.2f)\n",
			world.Entity(res[0].EntityID).Name, res[0].Score)
	}
}
