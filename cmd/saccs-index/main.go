// Command saccs-index builds the subjective tag inverted index over the
// synthetic review world and dumps it (Table 1 at full size): every tag, its
// entities, and their degrees of truth. It drives a saccs.Client — the
// trained model, extractor and index build saccs-server serves — so the dump
// shows exactly the index the server builds for the same world (Fig. 1's
// extractor + similarity checker + indexer pipeline).
//
// With -stream the world's reviews are fed one by one through the client's
// streaming ingest tier (AppendReview: WAL + delta builds + checkpoint
// compaction, then Quiesce) instead of one IndexEntities build — the two
// paths produce identical indexes, which this command makes easy to eyeball.
// Add -wal-dir to make the stream durable and replayable: run once, kill it,
// run again and watch recovery continue from the log.
//
// Usage:
//
//	saccs-index [-tags "good food,nice staff"] [-top 5] [-metrics-addr :9090]
//	saccs-index -stream [-wal-dir /tmp/saccs-wal] [-publish-every 64]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"saccs"
	"saccs/internal/core"
	"saccs/internal/index"
	"saccs/internal/sim"
	"saccs/internal/yelp"
)

func main() {
	tagsFlag := flag.String("tags", "", "comma-separated tags to index (default: the 18 canonical feature tags)")
	top := flag.Int("top", 5, "entities shown per tag")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address (e.g. :9090)")
	stream := flag.Bool("stream", false, "feed reviews through the WAL-backed streaming ingester instead of one batch build")
	walDir := flag.String("wal-dir", "", "durable WAL directory for -stream (empty: in-process only, no durability)")
	publishEvery := flag.Int("publish-every", 64, "publish a fresh snapshot every N streamed reviews (-stream only)")
	flag.Parse()

	cfg := saccs.DefaultConfig()
	if *stream {
		cfg.WALDir = *walDir
		cfg.IngestPublishEvery = *publishEvery
		cfg.IngestPublishInterval = -1
	}
	fmt.Println("training the neural extractor...")
	c, err := saccs.New(cfg)
	if err != nil {
		fail("saccs-index: %v", err)
	}
	if *metricsAddr != "" {
		srv, err := c.ServeMetrics(*metricsAddr)
		if err != nil {
			fail("metrics server: %v", err)
		}
		fmt.Printf("metrics: http://%s/metrics  pprof: http://%s/debug/pprof\n", srv.Addr, srv.Addr)
	}

	tags := c.CanonicalTags()
	if *tagsFlag != "" {
		tags = nil
		for _, t := range strings.Split(*tagsFlag, ",") {
			tags = append(tags, strings.TrimSpace(t))
		}
	}

	world := yelp.Generate(yelp.FastConfig())
	if *stream {
		streamWorld(c, world, tags, *walDir)
	} else {
		fmt.Println("extracting review tags...")
		if err := c.IndexEntities(entities(world), tags); err != nil {
			fail("saccs-index: %v", err)
		}
	}
	dumpIndex(c, world, *top)
	// Shutdown closes the ingester, so a -wal-dir run leaves a clean log.
	c.Shutdown()
}

// entities converts the generated world into the facade's entity records.
func entities(w *yelp.World) []saccs.Entity {
	out := make([]saccs.Entity, len(w.Entities))
	for i, e := range w.Entities {
		reviews := make([]string, len(e.Reviews))
		for j, r := range e.Reviews {
			reviews[j] = r.Text
		}
		out[i] = saccs.Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: reviews}
	}
	return out
}

// streamWorld feeds every review through the client's ingester, review by
// review, the way a live service would — durable append, delta builds every
// publish-every reviews, checkpoint compaction — and waits until every
// append is published. If walDir already holds a previous run's log, New has
// recovered the world from it and nothing is re-streamed (appends would
// double-count the reviews).
func streamWorld(c *saccs.Client, world *yelp.World, tags []string, walDir string) {
	if len(c.IndexedTags()) > 0 {
		fmt.Printf("recovered the streamed world from %s — skipping re-append\n", walDir)
		return
	}
	// An empty batch build fixes the indexed vocabulary the stream
	// publishes over.
	if err := c.IndexEntities(nil, tags); err != nil {
		fail("saccs-index: %v", err)
	}
	fmt.Println("streaming review appends...")
	appended := 0
	start := time.Now()
	for _, e := range world.Entities {
		for _, r := range e.Reviews {
			if err := c.AppendReview(e.ID, r.Text); err != nil {
				fail("append %s: %v", e.ID, err)
			}
			appended++
		}
	}
	if err := c.Quiesce(); err != nil {
		fail("ingest quiesce: %v", err)
	}
	elapsed := time.Since(start)
	fmt.Printf("streamed %d reviews in %v (%.0f appends/s)\n",
		appended, elapsed.Round(time.Millisecond), float64(appended)/elapsed.Seconds())
}

// dumpIndex prints the client's current index, read back from SaveIndex.
func dumpIndex(c *saccs.Client, world *yelp.World, top int) {
	var buf bytes.Buffer
	if err := c.SaveIndex(&buf); err != nil {
		fail("saccs-index: %v", err)
	}
	ix := index.New(sim.NewConceptual(), core.ThetaIndex)
	if err := ix.Load(&buf); err != nil {
		fail("saccs-index: %v", err)
	}
	fmt.Printf("\nsubjective tag index (%d tags, %d entities, %d reviews)\n\n",
		ix.Len(), len(world.Entities), world.ReviewCount())
	for _, tag := range ix.Tags() {
		entries := ix.Lookup(tag)
		fmt.Printf("%-22s %3d entities:", tag, len(entries))
		for i, e := range entries {
			if i >= top {
				fmt.Printf(" …")
				break
			}
			fmt.Printf("  %s (%.2f)", world.Entity(e.EntityID).Name, e.Degree)
		}
		fmt.Println()
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
