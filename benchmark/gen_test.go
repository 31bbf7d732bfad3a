package main

import (
	"reflect"
	"testing"

	"saccs/internal/lexicon"
	"saccs/internal/tokenize"
)

func coldUtterances(seed int64, n int) []string {
	g := newColdGen(lexicon.Restaurants(), seed)
	out := make([]string, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestSameSeedSameOpStream(t *testing.T) {
	d := lexicon.Restaurants()
	if a, b := coldUtterances(7, 3000), coldUtterances(7, 3000); !reflect.DeepEqual(a, b) {
		t.Error("cold utterances differ between two generators of one seed")
	}
	if a, b := warmPool(d, 7), warmPool(d, 7); !reflect.DeepEqual(a, b) {
		t.Error("warm pools differ between two draws of one seed")
	}
	a, b := newReviewStream("x", 7, groupEntities, ingestReviewsEach), newReviewStream("x", 7, groupEntities, ingestReviewsEach)
	for i := 0; i < 2000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("review %d differs between two streams of one seed: %v vs %v", i, x, y)
		}
	}
	if reflect.DeepEqual(coldUtterances(7, 100), coldUtterances(8, 100)) {
		t.Error("two seeds gave the same cold utterances")
	}
}

// The cold stream must never repeat a sentence — within a seed (ops and
// sibling utterances alike) or across two seeds — or the extraction cache
// would start to hit.
func TestColdSentencesNeverRepeat(t *testing.T) {
	const n = 20000
	seen := map[string]int64{}
	note := func(seed int64, utterance string) {
		for _, s := range tokenize.Sentences(utterance) {
			if prev, dup := seen[s]; dup {
				t.Fatalf("sentence %q of seed %d was already issued by seed %d", s, seed, prev)
			}
			seen[s] = seed
		}
	}
	for _, seed := range []int64{1, 2, -5} {
		g := newColdGen(lexicon.Restaurants(), seed)
		for i := 0; i < n; i++ {
			note(seed, g.Next())
		}
		for i := 0; i < n/10; i++ {
			note(seed, g.Sibling())
		}
	}
}

func TestColdUtteranceShape(t *testing.T) {
	two := 0
	for _, u := range coldUtterances(3, 4000) {
		sentences := tokenize.Sentences(u)
		if len(sentences) == 2 {
			two++
		}
		tokens := len(tokenize.Words(u))
		if len(sentences) < 1 || len(sentences) > 2 || tokens < 8 || tokens > 40 {
			t.Fatalf("utterance %q: %d sentences, %d tokens", u, len(sentences), tokens)
		}
	}
	if two != 1000 {
		t.Errorf("%d of 4000 utterances have two sentences, want every fourth", two)
	}
}

func TestWarmPoolDistinct(t *testing.T) {
	pool := warmPool(lexicon.Restaurants(), 11)
	if len(pool) != warmPoolSize {
		t.Fatalf("pool has %d utterances, want %d", len(pool), warmPoolSize)
	}
	seen := map[string]bool{}
	for _, u := range pool {
		if seen[u] {
			t.Errorf("pool repeats %q", u)
		}
		seen[u] = true
	}
}

// Every entity ID of the review stream is touched in exactly one segment, on
// both write workloads, so the work of a segment does not depend on the ones
// before it.
func TestStreamEntitiesStayInOneSegment(t *testing.T) {
	for _, tc := range []struct {
		name             string
		each, perSegment int
	}{
		{"ingest_stream", ingestReviewsEach, ingestSegmentOps},
		{"serve_mixed", serveReviewsEach, 2 * appendBurst},
	} {
		s := newReviewStream("t", 5, groupEntities, tc.each)
		if s.groupSize() != tc.perSegment {
			t.Fatalf("%s: a group is %d reviews, a segment appends %d", tc.name, s.groupSize(), tc.perSegment)
		}
		segmentOf := map[string]int{}
		reviews := map[string]int{}
		for j := 0; j < 12*tc.perSegment; j++ {
			op, seg := s.Next(), j/tc.perSegment
			if prev, ok := segmentOf[op.EntityID]; ok && prev != seg {
				t.Fatalf("%s: entity %s is touched in segments %d and %d", tc.name, op.EntityID, prev, seg)
			}
			segmentOf[op.EntityID] = seg
			reviews[op.EntityID]++
		}
		if len(s.ids) != 12*groupEntities || len(segmentOf) != len(s.ids) {
			t.Errorf("%s: %d IDs recorded, %d seen, want %d", tc.name, len(s.ids), len(segmentOf), 12*groupEntities)
		}
		for id, n := range reviews {
			if n != tc.each {
				t.Errorf("%s: entity %s got %d reviews, want %d", tc.name, id, n, tc.each)
			}
		}
	}
}
