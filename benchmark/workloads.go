package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"saccs"
	"saccs/internal/obs"
	"saccs/internal/server"
)

// Segment lengths, in ops. Each is about a second of work and a whole number
// of the workload's cycles; they are part of the benchmark's definition.
const (
	coldSegmentOps = 1500
	warmSegmentOps = 4000

	// serve_mixed: a cycle is 960 queries (3 warm : 1 cold) and then a burst
	// of 64 appends — one publication batch. Two cycles (2 048 ops) make a
	// segment.
	serveCycleQueries = 960
	appendBurst       = 64

	// ingest_stream: a cycle is 64 appends and a Quiesce; eight cycles make a
	// segment, so a segment holds at least eight publications and therefore
	// at least one compaction.
	ingestSegmentOps = 8 * appendBurst

	// Fresh entities per group of the review stream, and reviews each gets:
	// a group is one segment's appends on both write workloads.
	groupEntities     = 32
	ingestReviewsEach = ingestSegmentOps / groupEntities
	serveReviewsEach  = 2 * appendBurst / groupEntities
	// Warm-ups are short because set-up is most of a run's time; they open
	// connections and files, fill the warm pool's cache entries and let the
	// heap reach its working size.
	coldWarmupOps      = 1000
	warmWarmupPasses   = 8
	serveWarmupQueries = 256
	ingestWarmupCycles = 2
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "query_cold":
		return &queryCold{}, nil
	case "query_warm":
		return &queryWarm{}, nil
	case "serve_mixed":
		return &serveMixed{}, nil
	case "ingest_stream":
		return &ingestStream{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// needsWAL reports whether the workload appends reviews and so runs with a
// WAL directory.
func needsWAL(name string) bool { return name == "serve_mixed" || name == "ingest_stream" }

// ---------------------------------------------------------------- query_cold

type queryCold struct {
	gen *coldGen
}

func (w *queryCold) prepare(h *harness) error {
	w.gen = newColdGen(h.env.domain, h.seed)
	for i := 0; i < h.scaled(coldWarmupOps, 4); i++ {
		h.query(0, w.gen.Next(), nil)
	}
	return nil
}

// Two classes of op: one sentence, and (every fourth utterance) two.
func (w *queryCold) classes() int { return 2 }

func (w *queryCold) segment(h *harness) {
	for i := 0; i < h.scaled(coldSegmentOps, 4); i++ {
		class := 0
		if w.gen.next%4 == 3 {
			class = 1
		}
		text := w.gen.Next()
		resp := h.query(class, text, nil)
		if h.tr != nil && h.opSeq%sampleEvery == 0 {
			h.tr.close(h.replay(text, w.gen.Sibling(), resp.Tags))
			h.skipGap()
		}
	}
}

func (w *queryCold) verify(h *harness) {}

func (w *queryCold) layers(h *harness, set metricSet, traced timing, before, after obs.Snapshot) {
	set["saccs.query_ms"] = traced.P50Ms // the op is the in-process query itself
	set["saccs.residual_ms"] = set["saccs.query_ms"] - set["search.parse_ms"] - set["core.extract_miss_ms"] - set["shard.topk_ms"]
}

func (w *queryCold) close(h *harness) {}

// ---------------------------------------------------------------- query_warm

type queryWarm struct {
	pool    []string
	answers []saccs.Response // the warm-up answer to each pool utterance
	gen     *coldGen         // sibling utterances for the traced run's miss path
	next    int
}

func (w *queryWarm) prepare(h *harness) error {
	w.pool = warmPool(h.env.domain, h.seed)
	w.gen = newColdGen(h.env.domain, h.seed)
	w.answers = make([]saccs.Response, len(w.pool))
	for pass := 0; pass < warmWarmupPasses; pass++ {
		for i, text := range w.pool {
			if pass == 0 {
				w.answers[i] = h.query(i, text, nil)
			} else {
				h.query(i, text, &w.answers[i])
			}
		}
	}
	return nil
}

// Every utterance of the pool is a class of its own: the same work each time.
func (w *queryWarm) classes() int { return warmPoolSize }

func (w *queryWarm) segment(h *harness) {
	for i := 0; i < h.scaled(warmSegmentOps, 1); i++ {
		slot := w.next % len(w.pool)
		w.next++
		resp := h.query(slot, w.pool[slot], &w.answers[slot])
		if h.tr != nil && h.opSeq%sampleEvery == 0 {
			h.tr.close(h.replay(w.pool[slot], w.gen.Sibling(), resp.Tags))
			h.skipGap()
		}
	}
}

func (w *queryWarm) verify(h *harness) {}

func (w *queryWarm) layers(h *harness, set metricSet, traced timing, before, after obs.Snapshot) {
	set["saccs.query_ms"] = traced.P50Ms
	set["saccs.residual_ms"] = set["saccs.query_ms"] - set["search.parse_ms"] - set["core.extract_hit_ms"] - set["shard.topk_ms"]
}

func (w *queryWarm) close(h *harness) {}

// --------------------------------------------------------------- serve_mixed

type serveMixed struct {
	srv     *server.Server
	hc      *http.Client
	base    string
	pool    []string
	gen     *coldGen
	stream  *reviewStream
	next    int
	before  int // entities a rank over every indexed tag returned before the stream
	reqB    int64
	respB   int64
	httpOps int
}

func (w *serveMixed) prepare(h *harness) error {
	w.pool = warmPool(h.env.domain, h.seed)
	w.gen = newColdGen(h.env.domain, h.seed)
	w.stream = newReviewStream(fmt.Sprintf("sm%d-", h.seed), h.seed, groupEntities, serveReviewsEach)
	w.before = rankedEntities(h)
	w.srv = server.New(h.env.c, server.Config{Addr: "127.0.0.1:0"})
	if err := w.srv.Start(); err != nil {
		return fmt.Errorf("server start: %w", err)
	}
	w.base = "http://" + w.srv.Addr()
	// One client, one keep-alive connection.
	w.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	w.run(h, h.scaled(serveWarmupQueries, 4))
	return nil
}

// post sends one JSON request and reads the whole answer; the op's latency
// runs from before the request is written to after the body is read.
func (w *serveMixed) post(path string, body []byte) (status int, answer []byte, t0, t1 time.Time, err error) {
	t0 = time.Now()
	resp, err := w.hc.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, t0, time.Now(), err
	}
	answer, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 = time.Now()
	w.reqB += int64(len(body))
	w.respB += int64(len(answer))
	w.httpOps++
	return resp.StatusCode, answer, t0, t1, err
}

// httpQuery is one /v1/query op; the caller ends the unit.
func (w *serveMixed) httpQuery(h *harness, text string) (saccs.Response, time.Duration) {
	body, _ := json.Marshal(server.QueryRequest{Utterance: text}) // a struct of strings cannot fail to marshal
	status, answer, t0, t1, err := w.post("/v1/query", body)
	h.opSeq++
	if h.tr != nil {
		h.tr.add("server./v1/query", h.segSpan, h.opSeq, t0, t1)
	}
	var resp saccs.Response
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, answer)
	}
	if err == nil {
		err = json.Unmarshal(answer, &resp)
	}
	h.noteAnswer(text, resp, err, nil)
	return resp, t1.Sub(t0)
}

// httpAppend is one /v1/append op; the caller ends the unit.
func (w *serveMixed) httpAppend(h *harness, op appendOp) time.Duration {
	body, _ := json.Marshal(server.AppendRequest{EntityID: op.EntityID, Review: op.Review})
	status, answer, t0, t1, err := w.post("/v1/append", body)
	h.opSeq++
	if h.tr != nil {
		h.tr.add("server./v1/append", h.segSpan, h.opSeq, t0, t1)
	}
	h.attempted++
	if err != nil {
		h.fail("append to %s: %v", op.EntityID, err)
	} else if status != http.StatusOK {
		h.fail("append to %s: status %d: %s", op.EntityID, status, answer)
	}
	return t1.Sub(t0)
}

// Classes of op: a warm query, a never-seen query, and each place in the
// burst of appends (the last one is the one that publishes).
func (w *serveMixed) classes() int { return 2 + appendBurst }

// run is one cycle: queries queries (960 when measured), every fourth one
// never seen before, then 64 appends.
func (w *serveMixed) run(h *harness, queries int) {
	for i := 0; i < queries; i++ {
		cold := i%4 == 3
		var text string
		if cold {
			text = w.gen.Next()
		} else {
			text = w.pool[w.next%len(w.pool)]
			w.next++
		}
		resp, lat := w.httpQuery(h, text)
		h.endUnit(i%4/3, ms(lat)) // class 0 warm, class 1 never seen
		if h.tr != nil && h.opSeq%sampleEvery == 0 {
			// The same work without the server: a warm utterance again (still
			// cached), a cold one as a never-seen sibling of the same shape.
			again := text
			if cold {
				again = w.gen.Sibling()
			}
			rp := h.replay(text, w.gen.Sibling(), resp.Tags)
			inproc := h.tr.timed("saccs.Query", rp, h.opSeq, func() { h.env.c.Query(again) })
			h.tr.close(rp)
			h.sample("saccs.query", ms(inproc))
			h.sample("server.self", ms(lat-inproc))
			h.skipGap()
		}
	}
	for i := 0; i < appendBurst; i++ {
		lat := w.httpAppend(h, w.stream.Next())
		h.endUnit(2+i, ms(lat))
	}
}

func (w *serveMixed) segment(h *harness) {
	w.run(h, h.scaled(serveCycleQueries, 4))
	w.run(h, h.scaled(serveCycleQueries, 4))
}

// verify: once the stream is published, the HTTP answer to every pool
// utterance equals the in-process answer (both read the same, now quiet,
// index generation), every streamed entity is known, and a rank over every
// indexed tag reaches more entities than before the stream.
func (w *serveMixed) verify(h *harness) {
	if err := h.env.c.Quiesce(); err != nil {
		h.attempted++
		h.fail("quiesce: %v", err)
	}
	for _, text := range w.pool {
		over, _ := w.httpQuery(h, text)
		direct, err := h.env.c.QueryCtx(context.Background(), text)
		if err != nil || !sameAnswer(over, direct) {
			h.fail("query %q: HTTP and in-process answers differ (err %v)", text, err)
		}
	}
	verifyStream(h, w.stream.ids, w.before, rankedEntities(h))
}

func (w *serveMixed) layers(h *harness, set metricSet, traced timing, before, after obs.Snapshot) {
	set["saccs.query_ms"] = median(h.samples["saccs.query"])
	set["server.self_ms"] = median(h.samples["server.self"])
	set["server.request_bytes_per_op"] = ratio(float64(w.reqB), float64(w.httpOps))
	set["server.response_bytes_per_op"] = ratio(float64(w.respB), float64(w.httpOps))
	reviews, _ := histDelta(before, after, "ingest.append")
	ingestLayers(set, before, after, reviews)
}

func (w *serveMixed) close(h *harness) {
	w.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // a drain that times out has nothing left to lose here
}

// rankedEntities is how many entities a TopK = 0 rank over every indexed tag
// returns.
func rankedEntities(h *harness) int {
	rs, err := h.env.c.QueryTagsCtx(context.Background(), h.env.c.IndexedTags(), saccs.QueryOptions{TopK: saccs.Int(0)})
	if err != nil {
		return -1
	}
	return len(rs)
}

// verifyStream checks the write path's promise after the final Quiesce: every
// streamed entity is known to the client, and the stream widened what a rank
// over every indexed tag reaches. Each is one attempted check.
func verifyStream(h *harness, ids []string, rankedBefore, rankedAfter int) {
	for _, id := range ids {
		h.attempted++
		if _, ok := h.entity(id); !ok {
			h.fail("streamed entity %s is unknown to the client", id)
		}
	}
	h.attempted++
	if len(ids) > 0 && rankedAfter <= rankedBefore {
		h.fail("rank over every indexed tag reaches %d entities, %d before the stream", rankedAfter, rankedBefore)
	}
}

// ------------------------------------------------------------- ingest_stream

type ingestStream struct {
	stream  *reviewStream
	before  int
	starts  []time.Time // of the cycle's appends
	lat     []float64   // of the cycle's reviews
	acks    []float64   // AppendReview durations of the cycle, traced run only
	written float64     // process write bytes when the measured phases began
}

func (w *ingestStream) prepare(h *harness) error {
	w.stream = newReviewStream(fmt.Sprintf("is%d-", h.seed), h.seed, groupEntities, ingestReviewsEach)
	w.before = rankedEntities(h)
	for i := 0; i < ingestWarmupCycles; i++ {
		w.run(h)
	}
	// Start the measured stream on a group boundary so that every segment is
	// one whole group of fresh entities.
	for w.stream.next%w.stream.groupSize() != 0 {
		w.stream.next++
	}
	w.written = bytesWritten()
	w.stream.bytes = 0
	return nil
}

// Every cycle of 64 appends and a Quiesce is one unit, and all cycles are one
// class: a publication or two falls into each, a compaction into every
// eighth or so, wherever the publication count puts it.
func (w *ingestStream) classes() int { return 1 }

// run appends 64 reviews and then waits for them to be visible to queries.
// The op is one review: its latency runs from the start of its AppendReview
// to the return of the cycle's Quiesce — append → durable → visible. The
// probe runs after every append, so a cycle counts only if the machine was
// at full speed all the way through it.
func (w *ingestStream) run(h *harness) {
	c := h.env.c
	w.starts, w.acks = w.starts[:0], w.acks[:0]
	cyc := 0
	if h.tr != nil {
		cyc = h.tr.open("bench.cycle", h.segSpan, 0)
	}
	for i := 0; i < appendBurst; i++ {
		op := w.stream.Next()
		t0 := time.Now()
		err := c.AppendReview(op.EntityID, op.Review)
		h.opSeq++
		if h.tr != nil {
			t1 := time.Now()
			h.tr.add("saccs.AppendReview", cyc, h.opSeq, t0, t1)
			w.acks = append(w.acks, ms(t1.Sub(t0)))
		}
		w.starts = append(w.starts, t0)
		h.attempted++
		if err != nil {
			h.fail("append to %s: %v", op.EntityID, err)
		}
		h.probe()
	}
	q0 := time.Now()
	err := c.Quiesce()
	done := time.Now()
	if err != nil {
		h.attempted++
		h.fail("quiesce: %v", err)
	}
	w.lat = w.lat[:0]
	for _, t0 := range w.starts {
		w.lat = append(w.lat, ms(done.Sub(t0)))
	}
	h.endUnit(0, w.lat...)
	if h.tr != nil {
		h.tr.add("saccs.Quiesce", cyc, 0, q0, done)
		h.tr.close(cyc)
		for _, ack := range w.acks {
			h.sample("ingest.ack", ack)
		}
		h.sample("ingest.quiesce", ms(done.Sub(q0)))
	}
}

func (w *ingestStream) segment(h *harness) {
	for i := 0; i < h.scaled(ingestSegmentOps, appendBurst)/appendBurst; i++ {
		w.run(h)
	}
}

func (w *ingestStream) verify(h *harness) {
	verifyStream(h, w.stream.ids, w.before, rankedEntities(h))
}

func (w *ingestStream) layers(h *harness, set metricSet, traced timing, before, after obs.Snapshot) {
	reviews, _ := histDelta(before, after, "ingest.append")
	ingestLayers(set, before, after, reviews)
	// No query runs beside the stream, so every decode in the interval is
	// the review extractor's float64 one.
	_, predictMs := histDelta(before, after, "tagger.predict")
	set["tagger.predict_f64_ms_per_review"] = ratio(predictMs, reviews)
	acks := h.samples["ingest.ack"]
	set["ingest.ack_p50_ms"] = median(acks)
	if v, ok := quantile(acks, 0.99); ok {
		set["ingest.ack_p99_ms"] = v
	}
	set["ingest.quiesce_ms_per_cycle"] = mean(h.samples["ingest.quiesce"])
	// The process writes nothing but the WAL directory while it streams.
	set["ingest.disk_bytes_per_review_byte"] = ratio(bytesWritten()-w.written, float64(w.stream.bytes))
}

func (w *ingestStream) close(h *harness) {}
