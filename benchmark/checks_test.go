package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"saccs"
)

// fakeWorld stands in for the client in the output checks: it knows the
// entities it is given and nothing else.
func fakeHarness(known ...string) *harness {
	set := map[string]bool{}
	for _, id := range known {
		set[id] = true
	}
	return &harness{
		scale: 1,
		topK:  3,
		entity: func(id string) (saccs.Entity, bool) {
			return saccs.Entity{ID: id}, set[id]
		},
	}
}

// Every way an answer can be wrong is one failed op against the ops
// attempted: a non-200, a body that is not the wire format, and a 200 whose
// results break the shape every answer must have.
func TestBadAnswersCountAsFailures(t *testing.T) {
	answers := map[string]struct {
		status int
		body   string
	}{
		"good":      {200, `{"intent":"searchRestaurant","tags":["nice staff"],"results":[{"id":"e1","score":0.9},{"id":"e2","score":0.5}]}`},
		"non-200":   {503, `{"error":"saccs: rank: context deadline exceeded"}`},
		"corrupted": {200, `{"intent":"searchRestaurant","tags":["nice st`},
		"unknown":   {200, `{"tags":[],"results":[{"id":"e1","score":0.9},{"id":"ghost","score":0.5}]}`},
		"unordered": {200, `{"tags":[],"results":[{"id":"e1","score":0.5},{"id":"e2","score":0.9}]}`},
		"too many":  {200, `{"tags":[],"results":[{"id":"e1","score":0.9},{"id":"e2","score":0.8},{"id":"e1","score":0.7},{"id":"e2","score":0.6}]}`},
	}
	var next string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(answers[next].status)
		_, _ = w.Write([]byte(answers[next].body))
	}))
	defer ts.Close()

	h := fakeHarness("e1", "e2")
	w := &serveMixed{hc: ts.Client(), base: ts.URL}
	wantFailed := 0
	for _, name := range []string{"good", "non-200", "corrupted", "unknown", "unordered", "too many", "good"} {
		next = name
		w.httpQuery(h, "an utterance")
		if name != "good" {
			wantFailed++
		}
		if h.failed != wantFailed {
			t.Fatalf("after the %s answer: %d failed, want %d (notes %q)", name, h.failed, wantFailed, h.notes)
		}
	}
	if h.attempted != 7 {
		t.Errorf("attempted %d ops, want 7", h.attempted)
	}

	next = "non-200"
	w.httpAppend(h, appendOp{EntityID: "s1", Review: "nice staff."})
	if h.failed != wantFailed+1 || h.attempted != 8 {
		t.Errorf("a refused append: failed %d attempted %d", h.failed, h.attempted)
	}
}

func TestWarmAnswerMustRepeat(t *testing.T) {
	h := fakeHarness("e1", "e2")
	first := saccs.Response{Tags: []string{"nice staff"}, Results: []saccs.Result{{ID: "e1", Score: 0.9}, {ID: "e2", Score: 0.5}}}
	same := first
	h.noteAnswer("u", same, nil, &first)
	if h.failed != 0 {
		t.Fatalf("the same answer failed: %q", h.notes)
	}
	swapped := saccs.Response{Tags: first.Tags, Results: []saccs.Result{{ID: "e2", Score: 0.9}, {ID: "e1", Score: 0.5}}}
	h.noteAnswer("u", swapped, nil, &first)
	if h.failed != 1 || h.attempted != 2 {
		t.Errorf("a changed answer: failed %d of %d", h.failed, h.attempted)
	}
}

func TestMissingStreamedEntityCountsAsFailure(t *testing.T) {
	h := fakeHarness("s1", "s2")
	verifyStream(h, []string{"s1", "s2"}, 280, 282)
	if h.failed != 0 || h.attempted != 3 {
		t.Fatalf("a complete stream: failed %d of %d (%q)", h.failed, h.attempted, h.notes)
	}
	verifyStream(h, []string{"s1", "lost", "s2"}, 280, 283)
	if h.failed != 1 || h.attempted != 7 {
		t.Errorf("one missing entity: failed %d of %d", h.failed, h.attempted)
	}
	verifyStream(h, []string{"s1"}, 280, 280)
	if h.failed != 2 {
		t.Errorf("a stream that widened nothing: failed %d, want 2", h.failed)
	}
}
