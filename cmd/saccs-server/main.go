// Command saccs-server serves the SACCS pipeline over HTTP: a JSON API
// (/v1/query, /v1/extract, /v1/append, /v1/register, /v1/reindex) plus the
// operational surface (/metrics, /healthz, /readyz, /debug/slow,
// /debug/pprof) on one listener.
//
// At startup it trains the extraction pipeline and optionally seeds the demo
// Yelp world. With -wal-dir every streamed review and entity registration is
// fsynced before acknowledgment, and a restart recovers the streamed world.
//
// SIGINT/SIGTERM drains gracefully: /readyz flips to 503, in-flight requests
// get -drain to finish, then the client is shut down, which seals the WAL.
//
// Usage:
//
//	saccs-server [-addr :8080] [-wal-dir /var/lib/saccs]
//	             [-seed-demo] [-domain restaurants] [-drain 5s]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"saccs"
	"saccs/internal/server"
	"saccs/internal/yelp"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	walDir := flag.String("wal-dir", "", "durable WAL directory (empty: streamed writes are memory-only)")
	domain := flag.String("domain", "restaurants", "lexicon domain: restaurants, electronics, or hotels")
	scale := flag.String("training-scale", "fast", "training scale: fast or paper")
	seedDemo := flag.Bool("seed-demo", false, "index the seeded demo Yelp world at startup")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain window for in-flight requests at shutdown")
	maxBody := flag.Int64("max-body", 1<<20, "maximum request body bytes")
	topK := flag.Int("top-k", 10, "default answer truncation (0 = all)")
	slow := flag.Duration("slow-threshold", 0, "mark queries at or above this duration slow (0 disables)")
	precision := flag.String("precision", "mixed", "utterance decode arithmetic: float64 or mixed (indexing always runs float64)")
	flag.Parse()

	cfg := saccs.DefaultConfig()
	cfg.Domain = *domain
	cfg.TrainingScale = *scale
	cfg.Precision = *precision
	cfg.WALDir = *walDir
	cfg.TopK = *topK
	cfg.SlowThreshold = *slow

	fmt.Fprintf(os.Stderr, "training %s pipeline (%s scale)...\n", cfg.Domain, cfg.TrainingScale)
	t0 := time.Now()
	client, err := saccs.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saccs-server: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "trained in %s\n", time.Since(t0).Round(time.Millisecond))

	if *seedDemo {
		w := yelp.Generate(yelp.FastConfig())
		ents := make([]saccs.Entity, len(w.Entities))
		for i, e := range w.Entities {
			reviews := make([]string, len(e.Reviews))
			for j, r := range e.Reviews {
				reviews[j] = r.Text
			}
			ents[i] = saccs.Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: reviews}
		}
		if err := client.IndexEntities(ents, client.CanonicalTags()); err != nil {
			fmt.Fprintf(os.Stderr, "saccs-server: seeding demo world: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "indexed %d demo entities\n", len(ents))
	}

	srv := server.New(client, server.Config{Addr: *addr, MaxBodyBytes: *maxBody, DrainTimeout: *drain})
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "saccs-server: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "serving on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "draining...")
	if err := srv.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "saccs-server: drain: %v\n", err)
	}
	client.Shutdown()
	fmt.Fprintln(os.Stderr, "bye")
}
