// Restaurants: the paper's running example at scale. Generates the synthetic
// Yelp world (Italian restaurants in Montreal), indexes it with the full
// neural pipeline of a saccs.Client, prints a Table 1-style snippet of the
// subjective tag index, and walks through multi-tag subjective queries —
// including the adaptive user-tag-history loop of the paper's Fig. 1.
package main

import (
	"fmt"
	"os"

	"saccs"
	"saccs/internal/yelp"
)

func main() {
	fmt.Println("generating the synthetic Yelp world...")
	world := yelp.Generate(yelp.FastConfig())
	fmt.Printf("%d Italian restaurants in Montreal, %d reviews\n\n",
		len(world.Entities), world.ReviewCount())

	fmt.Println("training the extractor...")
	client, err := saccs.New(saccs.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	entities := make([]saccs.Entity, len(world.Entities))
	for i, e := range world.Entities {
		reviews := make([]string, len(e.Reviews))
		for j, r := range e.Reviews {
			reviews[j] = r.Text
		}
		entities[i] = saccs.Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: reviews}
	}
	fmt.Println("extracting subjective tags from all reviews...")
	if err := client.IndexEntities(entities, []string{"good food", "nice staff", "creative cooking", "fast delivery"}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	name := func(id string) string {
		e, _ := client.Entity(id)
		return e.Name
	}

	// Table 1: a snippet of the inverted index with degrees of truth — a
	// one-tag query over an indexed tag ranks its posting list.
	fmt.Println("\nTable 1-style index snippet:")
	for _, tag := range client.IndexedTags() {
		fmt.Printf("  %-18s", tag)
		for i, r := range client.QueryTags([]string{tag}) {
			if i == 3 {
				break
			}
			fmt.Printf("  %s (%.2f)", name(r.ID), r.Score)
		}
		fmt.Println()
	}

	// A known-tag query.
	fmt.Println("\nquery: restaurants with nice staff and good food")
	for i, r := range client.QueryTags([]string{"nice staff", "good food"})[:5] {
		fmt.Printf("  %d. %-16s score %.2f\n", i+1, name(r.ID), r.Score)
	}

	// An unknown tag triggers the adaptive loop (Fig. 1).
	fmt.Println("\nquery: romantic ambiance (not yet indexed)")
	res := client.QueryTags([]string{"romantic ambiance"})
	fmt.Printf("  answered in real time from %d similar index tags; the tag waits in the user tag history\n",
		len(client.IndexedTags()))
	if len(res) > 0 {
		fmt.Printf("  best guess: %s\n", name(res[0].ID))
	}
	indexed := client.Reindex()
	fmt.Printf("  next indexing round added %v; index now has %d tags\n", indexed, len(client.IndexedTags()))
	res = client.QueryTags([]string{"romantic ambiance"})
	if len(res) > 0 {
		fmt.Printf("  direct answer after indexing: %s (%.2f)\n", name(res[0].ID), res[0].Score)
	}
}
