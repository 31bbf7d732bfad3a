package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"saccs"
	"saccs/internal/lexicon"
	"saccs/internal/obs"
	"saccs/internal/search"
	"saccs/internal/tokenize"
)

// env is the system under test after the common set-up: a trained client over
// the indexed paper-scale world.
type env struct {
	c      *saccs.Client
	domain *lexicon.Domain
	topK   int
	tags   []string // the tags IndexEntities was given
	newS   float64  // saccs.New
	indexS float64  // IndexEntities
}

// setUp trains the pipeline at the default configuration and indexes the
// paper-scale world. walDir is "" for the read workloads; the write workloads
// set it and nothing else, so that the benchmark keeps meaning the same thing
// when a knob is removed.
func setUp(walDir string) (*env, error) {
	cfg := saccs.DefaultConfig()
	cfg.WALDir = walDir
	t0 := time.Now()
	c, err := saccs.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("saccs.New: %w", err)
	}
	e := &env{c: c, domain: lexicon.Restaurants(), topK: cfg.TopK, tags: c.CanonicalTags()}
	e.newS = time.Since(t0).Seconds()
	world := indexedWorld()
	t1 := time.Now()
	if err := c.IndexEntities(world, e.tags); err != nil {
		return nil, fmt.Errorf("IndexEntities: %w", err)
	}
	e.indexS = time.Since(t1).Seconds()
	return e, nil
}

// workload is one traffic mix. A segment is a fixed number of ops, so every
// segment of a workload does the same work.
type workload interface {
	// prepare builds the inputs and runs the warm-up ops.
	prepare(h *harness) error
	// classes is the number of classes its units fall into: units of one
	// class do the same work.
	classes() int
	// segment issues one segment's ops, ending a unit after each (on
	// ingest_stream, after each cycle).
	segment(h *harness)
	// verify is the untimed pass after the measured phase: the output checks
	// that need calls of their own.
	verify(h *harness)
	// layers adds the workload's own per-layer metrics; traced is the
	// traced half of the traced run, before and after are the program's
	// counters around the untraced half.
	layers(h *harness, set metricSet, traced timing, before, after obs.Snapshot)
	// close releases what prepare opened.
	close(h *harness)
}

// harness drives one workload and keeps the books: ops attempted and failed,
// the tracer when there is one, and the samples the traced run's replays
// produce.
type harness struct {
	env   *env
	seed  int64
	scale int // divides every segment's op count; 1 except in the smoke test
	// entity and topK are what the output checks hold an answer against:
	// the client's Entity and its configured TopK, or a test's stand-ins.
	entity func(id string) (saccs.Entity, bool)
	topK   int

	attempted, failed int
	notes             []string // the first few failure reasons

	// The measured phase in progress: its units, and the unit being timed.
	recording bool
	units     []unit
	mark      reading   // taken when the current unit began
	probes    []float64 // of the current unit, µs; [0] is the one before it
	probeS    float64   // time the current unit has spent in probes

	tr      *tracer
	segSpan int // the open segment span while tracing
	opSeq   int
	// Per-layer measurements of the traced phase, each tagged with the unit
	// it was taken after; samples is what is left of them once the units
	// that do not count are known.
	tagged  map[string][]taggedSample
	samples map[string][]float64

	tagsSeen, resultsSeen, queryOps int
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.notes) < 8 {
		h.notes = append(h.notes, fmt.Sprintf(format, args...))
	}
}

type taggedSample struct {
	v    float64
	unit int
}

// sample keeps one per-layer measurement — a duration in ms, or a count —
// taken after (and about the same work as) the unit that ended last.
func (h *harness) sample(name string, v float64) {
	h.tagged[name] = append(h.tagged[name], taggedSample{v, len(h.units) - 1})
}

// keepClean fills samples with the measurements taken after clean units: a
// layer timed in a slow spell says as little about the layer as an op does
// about the op.
func (h *harness) keepClean(clean []bool) {
	h.samples = make(map[string][]float64, len(h.tagged))
	for name, ts := range h.tagged {
		for _, t := range ts {
			if t.unit >= 0 && t.unit < len(clean) && clean[t.unit] {
				h.samples[name] = append(h.samples[name], t.v)
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scaled is a segment's op count under the harness's scale, kept a multiple
// of unit (the length of one cycle of the workload's periodic work).
func (h *harness) scaled(ops, unit int) int {
	n := ops / h.scale / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// retainedRSSMB is the process's resident set, in MB, once the collector has
// run and handed free memory back to the system: what the program holds on
// to after the measured phase — index, caches, model, WAL buffers. The peak
// is not reported because it follows the collector's timing, not the
// program (it moved by a third between identical runs); the garbage an op
// makes is alloc_kb_per_op.
func retainedRSSMB() float64 {
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// reading is the process's clocks at one instant.
type reading struct {
	at     time.Time
	cpuS   float64
	allocB float64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readNow() reading {
	metrics.Read(allocSample)
	return reading{at: time.Now(), cpuS: cpuSeconds(), allocB: float64(allocSample[0].Value.Uint64())}
}

// The probe is a fixed piece of floating-point arithmetic, about 12 µs on
// this box, that the harness runs between units to learn what the machine is
// doing: the box's two CPUs share a core with each other and the host shares
// it with other guests, and for spells of 10 ms to minutes the same code runs
// up to twice as slow. The probe knows nothing of the program, so choosing
// the units to count by the probe does not choose them by their own outcome.
var (
	probeA, probeB [256]float64
	probeSink      float64
)

func init() {
	for i := range probeA {
		probeA[i], probeB[i] = float64(i%7)+0.5, float64(i%11)+0.25
	}
}

func probePass() float64 {
	acc := 0.0
	for i := range probeA {
		acc += probeA[i] * probeB[i]
	}
	return acc
}

// probeOnce times 64 passes over 4 KB of operands. An untimed pass comes
// first: after a long op the operands have left the cache, and the probe is
// to measure the core, not what the program did to the cache.
func probeOnce() time.Duration {
	acc := probePass()
	start := time.Now()
	for rep := 0; rep < 64; rep++ {
		acc += probePass()
	}
	d := time.Since(start)
	probeSink += acc
	return d
}

// probe runs the probe inside the current unit; its time is kept out of the
// unit's wall and CPU time.
func (h *harness) probe() {
	if !h.recording {
		return
	}
	d := probeOnce()
	h.probes = append(h.probes, float64(d.Nanoseconds())/1e3)
	h.probeS += d.Seconds()
}

// beginPhase starts recording units; endPhase stops and hands them over.
func (h *harness) beginPhase() {
	h.recording, h.units = true, nil
	h.probes, h.probeS = h.probes[:0], 0
	h.probe()
	h.probeS = 0
	h.mark = readNow()
}

func (h *harness) endPhase() []unit {
	h.recording = false
	return h.units
}

// endUnit closes the unit that began when the previous one ended (or the
// phase began): class says what work it was and lat gives the latencies of
// its ops. The probe that follows it is the next unit's first.
func (h *harness) endUnit(class int, lat ...float64) {
	if !h.recording {
		return
	}
	end := readNow()
	h.probe()
	after := h.probes[len(h.probes)-1]
	h.units = append(h.units, unit{
		Class:   class,
		LatMs:   append([]float64(nil), lat...),
		WallS:   end.at.Sub(h.mark.at).Seconds() - (h.probeS - after/1e6),
		CPUS:    end.cpuS - h.mark.cpuS - (h.probeS - after/1e6),
		AllocB:  end.allocB - h.mark.allocB,
		ProbeUs: mean(h.probes),
	})
	h.probes = append(h.probes[:0], after)
	h.probeS = 0
	h.mark = readNow()
}

// skipGap restarts the current unit after work that belongs to no unit (a
// replay of the traced run): a fresh probe, a fresh mark.
func (h *harness) skipGap() {
	if !h.recording {
		return
	}
	h.probes, h.probeS = h.probes[:0], 0
	h.probe()
	h.probeS = 0
	h.mark = readNow()
}

// measure records whole segments until seconds have passed and at least
// minSegs are done, and returns the units of the phase and where each
// segment ended. With a tracer every segment is a root span and the ops its
// children.
func (h *harness) measure(w workload, seconds float64, minSegs int) (units []unit, segEnds []int) {
	start := time.Now()
	h.beginPhase()
	for len(segEnds) < minSegs || time.Since(start).Seconds() < seconds {
		if h.tr != nil {
			h.segSpan = h.tr.open("bench.segment", 0, 0)
		}
		w.segment(h)
		if h.tr != nil {
			h.tr.close(h.segSpan)
		}
		segEnds = append(segEnds, len(h.units))
	}
	return h.endPhase(), segEnds
}

// segmentCosts is the wall time per op, in ms, of every segment, disturbed
// units and all: what bench.segment_spread and bench.segment_drift are made
// of.
func segmentCosts(units []unit, segEnds []int) []float64 {
	var out []float64
	from := 0
	for _, to := range segEnds {
		wall, ops := 0.0, 0
		for _, u := range units[from:to] {
			wall += u.WallS
			ops += len(u.LatMs)
		}
		out = append(out, 1e3*ratio(wall, float64(ops)))
		from = to
	}
	return out
}

// checkResults is the check every answer everywhere must pass: at most TopK
// results, each an entity the client knows, scores non-increasing.
func (h *harness) checkResults(rs []saccs.Result) bool {
	if len(rs) > h.topK {
		return false
	}
	for i, r := range rs {
		if _, ok := h.entity(r.ID); !ok {
			return false
		}
		if i > 0 && r.Score > rs[i-1].Score {
			return false
		}
	}
	return true
}

// sameAnswer reports whether two answers to one utterance agree on what a
// user sees: the tags understood and the ranked results.
func sameAnswer(a, b saccs.Response) bool {
	if len(a.Tags) != len(b.Tags) || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Tags {
		if a.Tags[i] != b.Tags[i] {
			return false
		}
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// query is one in-process query op, a unit of its own. want, when non-nil,
// is the answer the same utterance got during warm-up.
func (h *harness) query(class int, text string, want *saccs.Response) saccs.Response {
	t0 := time.Now()
	resp, err := h.env.c.QueryCtx(context.Background(), text)
	t1 := time.Now()
	h.opSeq++
	if h.tr != nil {
		h.tr.add("saccs.Query", h.segSpan, h.opSeq, t0, t1)
	}
	h.noteAnswer(text, resp, err, want)
	h.endUnit(class, ms(t1.Sub(t0)))
	return resp
}

// noteAnswer counts one query op and applies the output checks to it.
func (h *harness) noteAnswer(text string, resp saccs.Response, err error, want *saccs.Response) {
	h.attempted++
	h.queryOps++
	h.tagsSeen += len(resp.Tags)
	h.resultsSeen += len(resp.Results)
	switch {
	case err != nil:
		h.fail("query %q: %v", text, err)
	case !h.checkResults(resp.Results):
		h.fail("query %q: results fail the shape check: %v", text, resp.Results)
	case want != nil && !sameAnswer(resp, *want):
		h.fail("query %q: answer differs from the warm-up answer", text)
	}
}

// sampleEvery is the share of query ops the traced run replays layer by
// layer: one in seven, a stride that shares no factor with the period of any
// workload's op pattern (4, 64, 1024), so the sample is the same mix as the
// stream.
const sampleEvery = 7

// replay pushes one op's text through each layer's public entry point, each
// call a child span of one "bench.replay" span. hitText is a text whose
// sentences are cached by now (the op's own), missText one never seen.
// It returns the replay span so that a workload can add calls of its own.
func (h *harness) replay(hitText, missText string, tags []string) int {
	c, tr, op := h.env.c, h.tr, h.opSeq
	rp := tr.open("bench.replay", h.segSpan, op)
	h.sample("search.parse", ms(tr.timed("search.ParseUtterance", rp, op, func() { search.ParseUtterance(hitText) })))

	var sentences []string
	words := tr.timed("tokenize.Sentences", rp, op, func() { sentences = tokenize.Sentences(hitText) })
	var decode time.Duration
	tokens := 0
	for _, s := range sentences {
		w := tr.timed("tokenize.Words", rp, op, func() { tokens += len(tokenize.Words(s)) })
		// TagLabels tokenizes and then decodes, uncached; the decode alone is
		// the call minus the tokenizing just measured.
		decode += tr.timed("saccs.TagLabels", rp, op, func() { c.TagLabels(s) }) - w
		words += w
	}
	h.sample("tokenize.words", ms(words))
	h.sample("tagger.decode", ms(decode))
	h.sample("tokens", float64(tokens))
	h.sample("sentences", float64(len(sentences)))

	h.sample("core.extract_miss", ms(tr.timed("saccs.ExtractTags.miss", rp, op, func() { c.ExtractTags(missText) })))
	h.sample("core.extract_hit", ms(tr.timed("saccs.ExtractTags.hit", rp, op, func() { c.ExtractTags(hitText) })))
	h.sample("shard.topk", ms(tr.timed("saccs.QueryTags", rp, op, func() { c.QueryTags(tags) })))
	return rp
}

// counterDelta is the growth of one of the program's counters; absent
// counters read 0 on both sides.
func counterDelta(before, after obs.Snapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

// histDelta is the growth of one of the program's duration histograms:
// observations and their total in ms.
func histDelta(before, after obs.Snapshot, name string) (count, sumMs float64) {
	b, a := before.Histograms[name], after.Histograms[name]
	return float64(a.Count - b.Count), ms(a.Sum - b.Sum)
}

// commonLayers fills the per-layer metrics every workload shares: counts read
// from the program's counters around the untraced phase (ops of that phase in
// phaseOps), the replay samples, the Go runtime and the harness's own checks.
func (h *harness) commonLayers(set metricSet, before, after obs.Snapshot, phaseOps float64) {
	set["saccs.new_s"] = h.env.newS
	set["saccs.index_entities_s"] = h.env.indexS
	if h.queryOps > 0 {
		set["saccs.tags_per_op"] = float64(h.tagsSeen) / float64(h.queryOps)
		set["saccs.results_per_op"] = float64(h.resultsSeen) / float64(h.queryOps)
	}
	for metric, sample := range map[string]string{
		"search.parse_ms":      "search.parse",
		"tokenize.words_ms":    "tokenize.words",
		"tagger.decode_ms":     "tagger.decode",
		"core.extract_miss_ms": "core.extract_miss",
		"core.extract_hit_ms":  "core.extract_hit",
		"shard.topk_ms":        "shard.topk",
	} {
		set[metric] = median(h.samples[sample])
	}
	set["tokenize.tokens_per_op"] = mean(h.samples["tokens"])
	set["tagger.sentences_per_op"] = mean(h.samples["sentences"])
	set["tagger.decode_us_per_token"] = 1e3 * ratio(sum(h.samples["tagger.decode"]), sum(h.samples["tokens"]))

	hit, miss := counterDelta(before, after, "extract.cache.hit.total"), counterDelta(before, after, "extract.cache.miss.total")
	set["extcache.hit_share"] = ratio(hit, hit+miss)
	// extract.batch.size observes an n-sentence shared forward as n ns.
	shared := float64((after.Histograms["extract.batch.size"].Sum - before.Histograms["extract.batch.size"].Sum).Nanoseconds())
	solo := counterDelta(before, after, "extract.batch.solo.total")
	set["core.batch_shared_share"] = ratio(shared, shared+solo)
	_, pairMs := histDelta(before, after, "stage.pairing.pairs")
	set["pairing.self_ms"] = ratio(pairMs, phaseOps)
	_, resolveMs := histDelta(before, after, "index.resolve")
	set["index.resolve_ms_per_op"] = ratio(resolveMs, phaseOps)
	exact, similar := counterDelta(before, after, "index.resolve.exact.total"), counterDelta(before, after, "index.resolve.similar.total")
	set["index.resolve_similar_share"] = ratio(similar, exact+similar)
	mhit, mmiss := counterDelta(before, after, "sim.memo.hit.total"), counterDelta(before, after, "sim.memo.miss.total")
	set["sim.memo_hit_share"] = ratio(mhit, mhit+mmiss)
	set["index.generations_per_kop"] = 1e3 * ratio(after.Gauges["index.generation"]-before.Gauges["index.generation"], phaseOps)
}

// ingestLayers fills the write path's metrics from the program's counters
// around a phase in which reviews were appended.
func ingestLayers(set metricSet, before, after obs.Snapshot, reviews float64) {
	_, fsyncMs := histDelta(before, after, "ingest.wal.fsync")
	set["ingest.fsync_ms_per_append"] = ratio(fsyncMs, reviews)
	publishes, publishMs := histDelta(before, after, "ingest.publish")
	set["ingest.publish_ms_per_review"] = ratio(publishMs, reviews)
	set["ingest.publishes_per_kreview"] = 1e3 * ratio(publishes, reviews)
	set["ingest.compactions_per_kreview"] = 1e3 * ratio(counterDelta(before, after, "ingest.compactions.total"), reviews)
	_, mergeMs := histDelta(before, after, "index.merge")
	set["index.merge_ms_per_review"] = ratio(mergeMs, reviews)
}

// goRuntime is the part of runtime.MemStats the benchmark reads.
type goRuntime struct {
	mallocs, pauseNs, heapAlloc uint64
	numGC                       uint32
}

func readGoRuntime() goRuntime {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goRuntime{m.Mallocs, m.PauseTotalNs, m.HeapAlloc, m.NumGC}
}

func goLayers(set metricSet, before, after goRuntime, ops float64) {
	set["go.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), ops)
	set["go.gc_cycles_per_kop"] = 1e3 * ratio(float64(after.numGC-before.numGC), ops)
	set["go.gc_pause_ms_per_kop"] = 1e3 * ratio(float64(after.pauseNs-before.pauseNs)/1e6, ops)
	set["go.heap_mb"] = float64(after.heapAlloc) / (1 << 20)
}

// bytesWritten is the number of bytes the process has passed to write calls
// so far (wchar of /proc/self/io), or 0 where the kernel does not say.
func bytesWritten() float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n
		}
	}
	return 0
}
