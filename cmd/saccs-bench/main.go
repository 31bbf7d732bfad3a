// Command saccs-bench regenerates every table and figure of the paper's
// evaluation (§6) and runs the three measurements the benchmark/ module does
// not: the decode-precision ratio, parallel query scaling and the open-loop
// HTTP rate ladder. By default it runs at fast (CI) scale; -scale paper uses
// the paper's corpus sizes (280 entities / ~7000 reviews, Table 3 dataset
// sizes, 100 queries per difficulty, 15 training epochs). Every section
// prints to stdout; the tool writes no file.
//
// The "quant" section times the cold Viterbi decode at float64 and at mixed
// precision; with -quant-guard the process exits nonzero if mixed is not
// quantGuardMin times faster.
//
// The "parallel" section measures cold-path end-to-end query throughput
// through the public facade: one client at one goroutine and at -parallel
// goroutines. Every query is a distinct multi-sentence utterance and the
// extraction cache is off, so the decode work is real and concurrent
// queries beat the single-goroutine figure only by running on more
// processors. With -qps-guard the process exits nonzero if the concurrent
// pass is slower than the 1-goroutine pass — the regression CI smoke gate:
// more goroutines must not mean fewer queries.
//
// The "serve" section benchmarks the HTTP tier end to end: it trains a
// facade client, starts a real saccs-server on loopback, and drives
// /v1/query with an open-loop load generator — requests fire at fixed
// arrival rates regardless of how fast earlier ones complete, and latency is
// measured from each request's scheduled arrival time, so queueing delay
// under overload is charged to the server, never hidden by a slow client (no
// coordinated omission). The rate ladder is calibrated against the same
// server, and the max-sustained figure is the highest offered rate with
// achieved/offered >= 0.95 and zero errors.
//
// Usage:
//
//	saccs-bench [-scale fast|paper]
//	            [-only table2,table3,table4,table5,figures,quant,parallel,serve]
//	            [-parallel N] [-parallel-dur 2s] [-qps-guard] [-quant-guard]
//	            [-metrics-addr :9090]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saccs"
	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/experiments"
	"saccs/internal/lexicon"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/server"
	"saccs/internal/tokenize"
	"saccs/internal/yelp"
)

// sections lists every -only name in the order main runs them.
var sections = []string{"table3", "figures", "table5", "table4", "table2", "quant", "parallel", "serve"}

// parseOnly turns the -only value into the set of sections to run. An empty
// value selects every section; a name that is not a section is an error, so
// a stale invocation fails instead of silently running nothing.
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		for _, name := range sections {
			want[name] = true
		}
		return want, nil
	}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(sections, name) {
			return nil, fmt.Errorf("unknown section %q (valid: %s)", name, strings.Join(sections, ","))
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	scaleFlag := flag.String("scale", "fast", "experiment scale: fast or paper")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(sections, ","))
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :9090)")
	parallelN := flag.Int("parallel", runtime.GOMAXPROCS(0), "goroutines for the parallel query benchmark")
	qpsGuard := flag.Bool("qps-guard", false, "exit nonzero if the concurrent pass of the parallel section falls below its 1-goroutine QPS")
	quantGuard := flag.Bool("quant-guard", false, fmt.Sprintf("exit nonzero if the quant section's mixed-precision cold decode is not at least %gx the float64 decode", quantGuardMin))
	parallelDur := flag.Duration("parallel-dur", 2*time.Second, "duration of each parallel benchmark pass")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "fast":
		scale = experiments.Fast
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want fast or paper)\n", *scaleFlag)
		os.Exit(2)
	}
	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-only: %v\n", err)
		os.Exit(2)
	}

	o := obs.NewObserver()
	if *metricsAddr != "" {
		srv, err := obs.ServeObserver(*metricsAddr, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics  pprof: http://%s/debug/pprof\n", srv.Addr, srv.Addr)
	}

	run := func(name string, f func()) {
		if !want[name] {
			return
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		f()
		fmt.Printf("(%s took %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table3", func() { experiments.Table3(scale, os.Stdout) })
	run("figures", func() {
		experiments.Figure1(os.Stdout)
		experiments.Figure2(scale, os.Stdout)
		experiments.Figure5(scale, os.Stdout)
	})
	run("table5", func() { experiments.Table5(scale, os.Stdout) })
	run("table4", func() { experiments.Table4(scale, os.Stdout) })
	run("table2", func() { experiments.Table2(scale, os.Stdout) })
	run("quant", func() { quantBenchmarks(o, *quantGuard) })
	run("parallel", func() { parallelBenchmarks(*parallelN, *parallelDur, *qpsGuard) })
	run("serve", func() { serveBenchmarks(*parallelDur) })
}

// quantGuardMin is the -quant-guard floor: mixed cold decode over float64
// cold decode. The Makefile's bench-smoke comment records the runs behind it.
const quantGuardMin = 1.5

// quantBenchmarks measures the cold Viterbi decode of the served tagger
// (core.TrainTagger at fast scale) at each precision mode and reports the
// mixed-mode speedup against full float64. With guard set the process exits
// nonzero if the mixed decode is not at least quantGuardMin times float64
// (oracle/quant-drift separately pins that the speed does not come at the
// cost of label agreement).
func quantBenchmarks(o *obs.Observer, guard bool) {
	fmt.Println("training the served tagger...")
	// nn.Mixed is the serving default (saccs.Config.Precision).
	tg := core.TrainTagger(lexicon.Restaurants(), datasets.S1(datasets.Fast), datasets.Fast, true, 0.2, nn.Mixed, o)
	tokens := tokenize.Words("I want an Italian restaurant in Montreal with delicious food and nice staff")

	modes := []struct {
		name string
		p    nn.Precision
	}{
		{"tagger.decode.float64", nn.Float64},
		{"tagger.decode.mixed", nn.Mixed},
	}
	nsPerOp := make([]float64, len(modes))
	fmt.Printf("%-22s %14s %12s %12s\n", "mode", "ns/op", "allocs/op", "B/op")
	for i, m := range modes {
		p := m.p
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tg.PredictAt(tokens, p)
			}
		})
		nsPerOp[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		fmt.Printf("%-22s %14.0f %12d %12d\n", m.name, nsPerOp[i], r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
	f64, mixed := nsPerOp[0], nsPerOp[1]
	if mixed > 0 {
		fmt.Printf("mixed cold decode: %.2fx float64\n", f64/mixed)
	}
	if guard && mixed > 0 && f64/mixed < quantGuardMin {
		fmt.Fprintf(os.Stderr, "quant guard: mixed cold decode is %.2fx float64, want >= %gx\n", f64/mixed, quantGuardMin)
		os.Exit(1)
	}
}

// coldUtterances builds n distinct three-sentence utterances. Distinctness
// keeps the extraction cache out of the picture: every sentence is a real
// decode — the cold path.
func coldUtterances(n int) []string {
	adjs := []string{"delicious", "friendly", "quiet", "creative", "amazing",
		"attentive", "cozy", "fresh", "spicy", "generous", "charming", "polite"}
	nouns := []string{"food", "staff", "atmosphere", "cooking", "pizza",
		"waiters", "desserts", "portions", "music", "service", "tables", "coffee"}
	out := make([]string, n)
	for i := range out {
		a1 := adjs[i%len(adjs)]
		n1 := nouns[(i/len(adjs))%len(nouns)]
		a2 := adjs[(i/(len(adjs)*len(nouns)))%len(adjs)]
		out[i] = fmt.Sprintf(
			"I want an Italian restaurant in Montreal with %s %s and %s desserts. "+
				"My friends keep asking for a place with %s staff and really %s portions. "+
				"It should also have %s music plus some %s coffee for the late evenings.",
			a1, n1, a2, a1, a2, a1, a2)
	}
	return out
}

// parallelResult is one throughput pass of the parallel benchmark: a facade
// client queried by Goroutines goroutines.
type parallelResult struct {
	Goroutines int
	Queries    int64
	Seconds    float64
	QPS        float64
}

// parallelBenchmarks measures cold-path end-to-end Query throughput through
// the public facade: one client at 1 and at workers goroutines. The
// extraction cache is off and every query is a distinct utterance, so each
// goroutine decodes its own sentences and the speedup row is what the extra
// processors buy: about GOMAXPROCS at best, and ~1x on one CPU, where
// time-slicing goroutines through the same serial decodes gains nothing.
// With guard set, a concurrent pass slower than the 1-goroutine pass fails
// the process — the CI regression gate.
func parallelBenchmarks(workers int, dur time.Duration, guard bool) {
	if workers < 1 {
		workers = 1
	}
	cfg := saccs.DefaultConfig()
	cfg.ExtractCacheSize = 0
	fmt.Println("training the facade client...")
	c, err := saccs.New(cfg)
	if err == nil {
		err = c.IndexEntities(serveWorld(), c.CanonicalTags())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "parallel bench: %v\n", err)
		os.Exit(1)
	}
	defer c.Shutdown()
	pool := coldUtterances(512)
	pass := func(g int) parallelResult {
		var n, seq atomic.Int64
		var wg sync.WaitGroup
		deadline := time.Now().Add(dur)
		start := time.Now()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := seq.Add(1)
					c.Query(pool[int(i)%len(pool)])
					n.Add(1)
				}
			}()
		}
		wg.Wait()
		sec := time.Since(start).Seconds()
		return parallelResult{Goroutines: g, Queries: n.Load(), Seconds: sec, QPS: float64(n.Load()) / sec}
	}

	rows := []parallelResult{pass(1)}
	if workers > 1 {
		rows = append(rows, pass(workers))
	}
	fmt.Printf("%-12s %10s %10s %12s\n", "goroutines", "queries", "seconds", "qps")
	for _, r := range rows {
		fmt.Printf("%-12d %10d %10.2f %12.1f\n", r.Goroutines, r.Queries, r.Seconds, r.QPS)
	}
	if len(rows) < 2 || rows[0].QPS <= 0 {
		return
	}
	fmt.Printf("speedup %d goroutines / 1 goroutine: %.2fx (GOMAXPROCS=%d)\n",
		workers, rows[1].QPS/rows[0].QPS, runtime.GOMAXPROCS(0))
	if guard && rows[1].QPS < rows[0].QPS {
		fmt.Fprintf(os.Stderr, "qps guard: %d goroutines %.1f QPS < 1 goroutine %.1f QPS — parallel queries must not be slower than serial\n",
			rows[1].Goroutines, rows[1].QPS, rows[0].QPS)
		os.Exit(1)
	}
}

// serveWorld converts the seeded demo Yelp world into facade entities — the
// same corpus the golden snapshots and cmd/saccs-server -seed-demo use.
func serveWorld() []saccs.Entity {
	w := yelp.Generate(yelp.FastConfig())
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

// servePass is one open-loop pass of the HTTP serving benchmark: the server
// driven at one fixed offered arrival rate.
type servePass struct {
	OfferedQPS float64
	// AchievedQPS is completed requests over the full pass (scheduled span
	// plus drain); Sustained means achieved/offered >= 0.95 with no errors.
	AchievedQPS float64
	Requests    int64
	Errors      int64
	Sustained   bool
	// Latency quantiles are measured from each request's scheduled arrival
	// time, not its send time, so queueing under overload is included.
	P50Ns, P99Ns, P999Ns float64
}

// serveBenchmarks drives the real HTTP tier with an open-loop load generator.
// It trains a facade client over the demo world, starts a server on
// loopback, and replays /v1/query at the fixed arrival rates of a ladder
// calibrated against that server. Open loop means arrivals fire on schedule
// no matter how slow earlier requests are, and each request's latency is
// clocked from its scheduled arrival — so when the server falls behind, the
// queueing shows up in the quantiles instead of silently throttling the
// generator (coordinated omission). A rate is sustained when
// achieved/offered >= 0.95 with zero errors; the summary is the highest
// sustained rung. The query pool repeats four utterances, keeping the
// extraction cache warm so per-request cost is dominated by resolution and
// ranking.
func serveBenchmarks(dur time.Duration) {
	utterances := []string{
		"I want an Italian restaurant in Montreal with delicious food",
		"somewhere with friendly staff and a quiet atmosphere",
		"good food and attentive waiters please",
		"a place with creative cooking and amazing pizza",
	}
	httpc := &http.Client{
		Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512},
		Timeout:   time.Minute,
	}

	startServer := func() (*server.Server, *saccs.Client, error) {
		cfg := saccs.DefaultConfig()
		cfg.TrainingScale = "fast"
		c, err := saccs.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := c.IndexEntities(serveWorld(), c.CanonicalTags()); err != nil {
			return nil, nil, err
		}
		s := server.New(c, server.Config{Addr: "127.0.0.1:0"})
		if err := s.Start(); err != nil {
			return nil, nil, err
		}
		return s, c, nil
	}

	query := func(base string, i int) error {
		body := `{"utterance":"` + utterances[i%len(utterances)] + `"}`
		resp, err := httpc.Post(base+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	// closedLoop estimates capacity: workers hammer the server back to back.
	closedLoop := func(base string, workers int, d time.Duration) float64 {
		var n, seq atomic.Int64
		var wg sync.WaitGroup
		deadline := time.Now().Add(d)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if query(base, int(seq.Add(1))) == nil {
						n.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return float64(n.Load()) / time.Since(start).Seconds()
	}

	// openLoop fires requests at the offered rate for dur over a fixed pool
	// of connections (the wrk2 model: arrivals keep their schedule, and when
	// every connection is busy the missed schedule is charged to the
	// measurement, because each request's latency is clocked from its
	// scheduled arrival time, not from when a connection freed up).
	const workers = 32
	openLoop := func(base string, rate float64) servePass {
		n := int(rate * dur.Seconds())
		if n < 1 {
			n = 1
		}
		lat := make([]time.Duration, n)
		var errs, next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					sched := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(sched))
					if err := query(base, i); err != nil {
						errs.Add(1)
					}
					lat[i] = time.Since(sched)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		q := func(p float64) float64 {
			return float64(lat[min(n-1, int(p*float64(n)))])
		}
		achieved := float64(int64(n)-errs.Load()) / elapsed
		return servePass{
			OfferedQPS:  rate,
			AchievedQPS: achieved,
			Requests:    int64(n),
			Errors:      errs.Load(),
			Sustained:   errs.Load() == 0 && achieved >= 0.95*rate,
			P50Ns:       q(0.50),
			P99Ns:       q(0.99),
			P999Ns:      q(0.999),
		}
	}

	fmt.Println("training the served pipeline...")
	srv, c, err := startServer()
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve bench: %v\n", err)
		os.Exit(1)
	}
	base := "http://" + srv.Addr()
	// Calibration doubles as the warm-up: it opens every pool connection and
	// fills the extraction cache, so no rung is charged for TCP handshakes or
	// cold decodes.
	calibrated := closedLoop(base, workers, dur)
	var ladder []float64
	for _, m := range []float64{0.3, 0.5, 0.7, 0.9, 1.1} {
		ladder = append(ladder, calibrated*m)
	}
	fmt.Printf("calibrated %.1f QPS closed-loop; ladder %.1f..%.1f\n",
		calibrated, ladder[0], ladder[len(ladder)-1])
	fmt.Printf("%12s %12s %10s %8s %10s %10s %10s %10s\n",
		"offered", "achieved", "requests", "errors", "p50", "p99", "p999", "sustained")
	var maxSustained float64
	for _, rate := range ladder {
		p := openLoop(base, rate)
		if p.Sustained && p.OfferedQPS > maxSustained {
			maxSustained = p.OfferedQPS
		}
		fmt.Printf("%12.1f %12.1f %10d %8d %10s %10s %10s %10v\n",
			p.OfferedQPS, p.AchievedQPS, p.Requests, p.Errors,
			time.Duration(p.P50Ns).Round(time.Microsecond),
			time.Duration(p.P99Ns).Round(time.Microsecond),
			time.Duration(p.P999Ns).Round(time.Microsecond),
			p.Sustained)
	}
	httpc.CloseIdleConnections()
	if err := srv.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "serve bench: shutdown: %v\n", err)
		os.Exit(1)
	}
	c.Shutdown()
	fmt.Printf("max sustained: %.1f QPS\n", maxSustained)
}
