// Command benchmark is the repo's benchmark: single-client, closed-loop
// workloads over the paper-scale world, timed op by op with a probe of the
// machine between ops so that only ops run at full speed count, and a traced
// run that attributes the time to the repo's layers from the outside in. See
// README.md beside this file.
//
//	bash benchmark/run.sh --workload query_cold --seed 1 --seconds 13 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart is as close to the start of the process as Go code gets;
// setup_s runs from here to the first warm-up op.
var processStart = time.Now()

// measureProcs is GOMAXPROCS from the first warm-up op on; set-up runs at the
// default. The box's two CPUs are hardware threads of one core: with two Ps
// the collector, the publication ticker and the per-query rank goroutine run
// beside the client on the sibling thread and slow it by up to half, for as
// long as the host happens to keep the two threads on one core — minutes at a
// time — and identical runs moved by 10–30 %. With one P the program's
// background work takes turns with the client on one thread, the other
// thread stays idle, and identical runs agree to a few percent. The cost is
// stated in README.md: at one P shard.View.TopK ranks inline, not in a
// goroutine, and nothing the program does in the background overlaps the
// client.
const measureProcs = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	workDir  string
	scale    int
}

func main() {
	var o options
	var trace, aa int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 13, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, which reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "where the traced run writes its spans (default <workdir>/trace.jsonl)")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for the WAL and the trace")
	flag.IntVar(&aa, "aa", 0, "run the workload this many times, each a fresh process with the next seed, and compare the runs with each other")
	flag.Parse()
	o.trace, o.scale = trace != 0, 1

	if aa > 0 {
		os.Exit(runAA(o, aa))
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.Name)
	}
	return names
}

// run sets the system up, drives one workload and returns the result line.
// Everything a person reads goes to out first.
func run(o options, out *os.File) (*result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	walDir := ""
	if needsWAL(o.workload) {
		if walDir, err = os.MkdirTemp(o.workDir, "wal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
	}
	printConditions(out, o)

	e, err := setUp(walDir)
	if err != nil {
		return nil, err
	}
	defer e.c.Shutdown()
	setupS := time.Since(processStart).Seconds()
	runtime.GOMAXPROCS(measureProcs)
	return drive(e, w, o, setupS, out)
}

// drive runs workload w over a set-up system. It is split from run so that
// the smoke test can set up once for all four workloads.
func drive(e *env, w workload, o options, setupS float64, out *os.File) (*result, error) {
	h := &harness{env: e, seed: o.seed, scale: o.scale, entity: e.c.Entity, topK: e.topK, tagged: map[string][]taggedSample{}}
	if err := w.prepare(h); err != nil {
		return nil, err
	}
	defer w.close(h)

	set := metricSet{}
	defs := endToEnd
	if !o.trace {
		units, segEnds := h.measure(w, o.seconds, 4)
		t := estimate(units, w.classes())
		set["setup_s"] = setupS
		set["latency_p50_ms"], set["latency_p90_ms"] = t.P50Ms, t.P90Ms
		set["throughput_per_s"], set["cpu_ms_per_op"] = t.ThroughputS, t.CPUMsPerOp
		set["alloc_kb_per_op"] = t.AllocKBPerOp
		set["rss_mb"] = retainedRSSMB()
		w.verify(h)
		costs := segmentCosts(units, segEnds)
		fmt.Fprintf(out, "segments %d  ops %d  clean_share %.4f  probe_us %.3f  segment_spread %.4f  segment_drift %.4f  latency_p99_ms %.4f\n",
			len(segEnds), t.Ops, t.CleanShare, t.ProbeUs, spread(costs), drift(costs), t.P99Ms)
		if t.BeyondP90 < minBeyond {
			fmt.Fprintf(out, "WARNING: only %d clean samples lie beyond latency_p90_ms\n", t.BeyondP90)
		}
	} else {
		defs = perLayer
		if err := h.traced(w, o, set); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: resultMetrics(defs, set)}
	for _, d := range defs {
		fmt.Fprintf(out, "%-36s %14.6f %s\n", d.Name, set[d.Name], d.Unit)
	}
	fmt.Fprintf(out, "%-36s %14.6f ratio  (%d of %d)\n", "failed_share", ratio(float64(h.failed), float64(h.attempted)), h.failed, h.attempted)
	for _, n := range h.notes {
		fmt.Fprintln(out, "FAILED:", n)
	}
	return res, nil
}

// traced is the traced run: half the time untraced, to count the program's
// work per op from its own counters and to have a latency to compare with,
// then half the time with a span around every op and a layer-by-layer replay
// of every seventh query.
func (h *harness) traced(w workload, o options, set metricSet) error {
	c := h.env.c
	statsBefore, goBefore := c.Stats(), readGoRuntime()
	units, segEnds := h.measure(w, o.seconds/2, 2)
	statsAfter, goAfter := c.Stats(), readGoRuntime()
	plain, costs := estimate(units, w.classes()), segmentCosts(units, segEnds)

	h.tr = newTracer()
	tracedUnits, tracedEnds := h.measure(w, o.seconds/2, 2)
	tr := h.tr
	h.tr = nil
	withSpans := estimate(tracedUnits, w.classes())
	clean, _ := cleanUnits(tracedUnits, w.classes())
	h.keepClean(clean)
	w.verify(h)

	busy, covered := 0.0, 0.0
	self := selfTimes(tr.spans)
	for _, s := range tr.spans {
		if s.Name == "bench.segment" {
			busy += ms(s.dur())
			covered += ms(s.dur() - self[s.ID])
		}
	}
	h.commonLayers(set, statsBefore, statsAfter, float64(plain.Ops))
	goLayers(set, goBefore, goAfter, float64(plain.Ops))
	w.layers(h, set, withSpans, statsBefore, statsAfter)

	set["bench.ops"] = float64(plain.Ops + withSpans.Ops)
	set["bench.segments"] = float64(len(segEnds) + len(tracedEnds))
	set["bench.segment_spread"], set["bench.segment_drift"] = spread(costs), drift(costs)
	set["bench.clean_share"], set["bench.probe_us"] = plain.CleanShare, plain.ProbeUs
	set["bench.latency_p99_ms"] = plain.P99Ms
	set["bench.trace_overhead_share"] = ratio(withSpans.P50Ms, plain.P50Ms) - 1
	// What is left of a traced segment outside its op, replay and cycle
	// spans is the generator: building inputs, checking outputs, recording.
	set["bench.generator_share"] = 1 - ratio(covered, busy)

	path := o.traceOut
	if path == "" {
		path = filepath.Join(o.workDir, "trace.jsonl")
	}
	if err := tr.writeJSONL(path); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	return nil
}

// printConditions records what the run ran on; a number without these is
// not a result.
func printConditions(out *os.File, o options) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	fmt.Fprintf(out, "workload %s  seed %d  seconds %g  trace %t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "commit %s  %s  cpu %q  nproc %d  GOMAXPROCS %d during set-up, %d while measuring\n",
		commit, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), measureProcs)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
