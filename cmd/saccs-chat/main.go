// Command saccs-chat is an interactive subjectivity-aware conversational
// search REPL over the synthetic Yelp world: type utterances like
//
//	I want an Italian restaurant in Montreal with delicious food
//
// and SACCS extracts the subjective tags, filters the objective search
// results, and ranks them by degrees of truth. Special commands:
//
//	:tags        show the indexed subjective tags
//	:history     show the user tag history (unknown tags seen so far)
//	:reindex     run an indexing round over the history (Fig. 1's loop)
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

	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/experiments"
	"saccs/internal/extcache"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/tagger"
	"saccs/internal/yelp"
)

func main() {
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz, /debug/slow and /debug/pprof on this address (e.g. :9090)")
	slowThreshold := flag.Duration("slow-threshold", 100*time.Millisecond, "queries at or above this duration enter the slow-query log (:slow)")
	precisionFlag := flag.String("precision", "mixed", "utterance decode arithmetic: float64 or mixed (indexing always runs float64)")
	flag.Parse()
	precision, err := nn.ParsePrecision(*precisionFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saccs-chat: %v\n", err)
		os.Exit(1)
	}

	o := obs.NewObserver()
	ring := obs.NewRing[obs.SpanRecord](512)
	o.SetTracer(obs.NewTracer(ring))
	// HeadSampleN 1 keeps :trace working for every query; the threshold only
	// gates the slow-query log.
	o.SetTelemetry(obs.NewTelemetry(obs.TelemetryConfig{
		Metrics:       o.Metrics,
		HeadSampleN:   1,
		SlowThreshold: *slowThreshold,
	}))
	if *metricsAddr != "" {
		srv, err := obs.ServeObserver(*metricsAddr, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics  slow: http://%s/debug/slow  pprof: http://%s/debug/pprof\n",
			srv.Addr, srv.Addr, srv.Addr)
	}

	fmt.Println("setting up: world + extractor (this takes a few seconds)...")
	world := yelp.Generate(yelp.FastConfig())
	data := datasets.S1(datasets.Fast)
	encOpts := experiments.DefaultEncoderOpts(datasets.Fast)
	encOpts.Obs = o
	enc := experiments.BuildEncoder(encOpts, world.Domain, nil)
	cfg := tagger.DefaultConfig()
	cfg.Adversarial = true
	cfg.Epsilon = 0.2
	cfg.Precision = precision
	tg := tagger.New(enc, cfg)
	tg.Obs = o
	tg.Train(data.Train)
	pairer := pairing.Tree{Lex: parse.DomainLexicon(world.Domain), FromOpinions: true}
	ex := &core.Extractor{
		Tagger: tg,
		Pairer: pairer,
		// Interactive sessions repeat themselves; the generation-keyed cache
		// serves repeated sentences without a decode (see :stats).
		Cache: extcache.New(4096),
	}
	svc := core.NewService(world, ex, nil, core.DefaultConfig())
	svc.SetObserver(o)
	// Review indexing always extracts on the float64 reference path, whatever
	// -precision serves the REPL's utterance decodes — same split as the
	// library facade, so the indexed world is precision-independent.
	refEx := &core.Extractor{
		Tagger: tagger.ReferenceView{M: tg},
		Pairer: pairer,
		Cache:  extcache.New(4096),
	}
	svc.BuildEntityTags(core.NeuralSource{E: refEx})
	svc.IndexTags(svc.CanonicalTags()[:8])
	fmt.Printf("ready: %d restaurants, %d reviews, %d tags indexed\n\n",
		len(world.Entities), world.ReviewCount(), svc.Index.Len())

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("you> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ":quit", line == ":q":
			return
		case line == ":tags":
			fmt.Println(strings.Join(svc.Index.Tags(), ", "))
		case line == ":history":
			fmt.Println(svc.History.Pending())
		case line == ":reindex":
			added := svc.IndexPending()
			fmt.Printf("indexed %v; index now has %d tags\n", added, svc.Index.Len())
		case line == ":stats":
			o.Metrics.Snapshot().WriteText(os.Stdout)
		case line == ":trace":
			spans := ring.All()
			if root, ok := obs.LastRoot(spans); ok {
				obs.WriteTree(os.Stdout, obs.Subtree(spans, root.ID))
			} else {
				fmt.Println("no spans recorded yet — run a query first")
			}
		case line == ":slow":
			slow := o.Telemetry().SlowQueries()
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
			resp := svc.Query(line)
			fmt.Printf("intent=%s slots=%v tags=%v", resp.Intent.Name, resp.Intent.Slots, resp.Tags)
			if len(resp.UnknownTags) > 0 {
				fmt.Printf(" (new tags queued: %v — :reindex to learn them)", resp.UnknownTags)
			}
			fmt.Println()
			for i, s := range resp.Results {
				if i >= 5 {
					break
				}
				e := world.Entity(s.EntityID)
				fmt.Printf("  %d. %-16s %.1f★  degree %.2f\n", i+1, e.Name, e.Stars, s.Score)
			}
		}
		fmt.Print("you> ")
	}
}
