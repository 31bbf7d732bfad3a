// Command saccs-chat is an interactive subjectivity-aware conversational
// search REPL over the synthetic Yelp world: type utterances like
//
//	I want an Italian restaurant in Montreal with delicious food
//
// and SACCS extracts the subjective tags, filters the objective search
// results, and ranks them by degrees of truth. It is a saccs.Client — the
// pipeline saccs-server serves — over the demo world with the first eight
// canonical tags indexed, so unknown tags are easy to provoke. Every reply
// prints the tags the utterance queued for the next indexing round.
// Special commands:
//
//	:tags        show the indexed subjective tags
//	:reindex     run an indexing round over the queued tags (Fig. 1's loop)
//	:stats       dump the runtime metrics snapshot (counters, gauges, stage latencies)
//	:trace       print the span tree of the most recent query
//	:slow        print the worst-K slow-query log (trace IDs, stage timings)
//	:quit        exit
//
// With -metrics-addr the process also serves /metrics (Prometheus text),
// /healthz + /readyz, /debug/slow (the slow-query log as JSON), and the
// pprof handlers under /debug/pprof on the given address.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"saccs"
	"saccs/internal/obs"
	"saccs/internal/yelp"
)

func main() {
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz, /debug/slow and /debug/pprof on this address (e.g. :9090)")
	slowThreshold := flag.Duration("slow-threshold", 100*time.Millisecond, "queries at or above this duration, or slower than the rolling p99 of request.latency.query after 100 queries, enter the slow-query log (:slow); 0 logs errored requests only")
	precision := flag.String("precision", "mixed", "utterance decode arithmetic: float64 or mixed (indexing always runs float64)")
	flag.Parse()

	cfg := saccs.DefaultConfig()
	cfg.Precision = *precision
	cfg.SlowThreshold = *slowThreshold

	fmt.Println("setting up: world + extractor (this takes a few seconds)...")
	c, err := saccs.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saccs-chat: %v\n", err)
		os.Exit(1)
	}
	ring := saccs.NewRingSink(512)
	c.SetTraceSink(ring)
	if *metricsAddr != "" {
		srv, err := c.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics  slow: http://%s/debug/slow  pprof: http://%s/debug/pprof\n",
			srv.Addr, srv.Addr, srv.Addr)
	}

	world := yelp.Generate(yelp.FastConfig())
	entities := make([]saccs.Entity, len(world.Entities))
	for i, e := range world.Entities {
		reviews := make([]string, len(e.Reviews))
		for j, r := range e.Reviews {
			reviews[j] = r.Text
		}
		entities[i] = saccs.Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: reviews}
	}
	if err := c.IndexEntities(entities, c.CanonicalTags()[:8]); err != nil {
		fmt.Fprintf(os.Stderr, "saccs-chat: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ready: %d restaurants, %d reviews, %d tags indexed\n\n",
		len(world.Entities), world.ReviewCount(), len(c.IndexedTags()))

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("you> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ":quit", line == ":q":
			return
		case line == ":tags":
			fmt.Println(strings.Join(c.IndexedTags(), ", "))
		case line == ":reindex":
			added := c.Reindex()
			fmt.Printf("indexed %v; index now has %d tags\n", added, len(c.IndexedTags()))
		case line == ":stats":
			c.Stats().WriteText(os.Stdout)
		case line == ":trace":
			spans := ring.All()
			if root, ok := saccs.LastRootSpan(spans); ok {
				saccs.WriteSpanTree(os.Stdout, saccs.SpanSubtree(spans, root.ID))
			} else {
				fmt.Println("no spans recorded yet — run a query first")
			}
		case line == ":slow":
			slow := c.SlowQueries()
			if len(slow) == 0 {
				fmt.Printf("no slow queries recorded (threshold %s)\n", *slowThreshold)
				break
			}
			for _, ev := range slow {
				fmt.Printf("%s  %-8s %10s  status=%s gen=%d tags=%d results=%d\n",
					ev.Trace, ev.Kind, ev.Duration.Round(time.Microsecond), ev.Status,
					ev.Generation, ev.Tags, ev.Results)
				for _, name := range obs.StageNames {
					if d, ok := ev.Stage[name]; ok {
						fmt.Printf("    %-16s %10s\n", name, d.Round(time.Microsecond))
					}
				}
			}
		default:
			resp := c.Query(line)
			fmt.Printf("intent=%s slots=%v tags=%v", resp.Intent, resp.Slots, resp.Tags)
			if len(resp.UnknownTags) > 0 {
				fmt.Printf(" (new tags queued: %v — :reindex to learn them)", resp.UnknownTags)
			}
			fmt.Println()
			for i, r := range resp.Results {
				if i >= 5 {
					break
				}
				e := world.Entity(r.ID)
				fmt.Printf("  %d. %-16s %.1f★  degree %.2f\n", i+1, e.Name, e.Stars, r.Score)
			}
		}
		fmt.Print("you> ")
	}
}
