package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"saccs/internal/bert"
	"saccs/internal/extcache"
	"saccs/internal/nn"
	"saccs/internal/pairing"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
)

// stubTagger is a deterministic Tagger with a weight generation and a test
// hook: it labels the first two tokens of a sentence opinion/aspect (so every
// distinct sentence yields the distinct tag "tok0 tok1") and runs onDecode
// inside Predict — to model a retrain, or a cancellation, overlapping the
// decode.
type stubTagger struct {
	gen      atomic.Uint64
	onDecode func()
}

func (s *stubTagger) Predict(tokens []string) []tokenize.Label {
	if s.onDecode != nil {
		s.onDecode()
	}
	out := make([]tokenize.Label, len(tokens))
	if len(tokens) >= 2 {
		out[0], out[1] = tokenize.BOP, tokenize.BAS
	}
	return out
}

func (s *stubTagger) Generation() uint64 { return s.gen.Load() }

// allPairs pairs every aspect with every opinion — enough structure for the
// stub labels to round-trip into "opinion aspect" tags.
type allPairs struct{}

func (allPairs) Pairs(tokens []string, aspects, opinions []tokenize.Span) []pairing.Pair {
	var out []pairing.Pair
	for _, a := range aspects {
		for _, o := range opinions {
			out = append(out, pairing.Pair{Aspect: a, Opinion: o})
		}
	}
	return out
}

// TestConcurrentExtractMatchesSerial drives cached extractors over a real
// MiniBERT-backed tagger from 8 goroutines whose multi-sentence texts share
// sentences, and requires every result to be exactly the serial, uncached
// tags. Under -race it is also the proof that the pooled decode arenas, the
// packed-weight caches and the extraction cache share nothing unsynchronized.
func TestConcurrentExtractMatchesSerial(t *testing.T) {
	words := []string{"the", "food", "is", "delicious", "and", "staff", "friendly", "slow", "service", "pizza"}
	v := tokenize.NewVocab()
	v.AddAll(words)
	enc := bert.New(rand.New(rand.NewSource(3)), bert.Config{Layers: 1, Heads: 2, Dim: 16, FFDim: 24, MaxLen: 12}, v)
	cfg := tagger.DefaultConfig()
	cfg.Hidden = 8
	cfg.Precision = nn.Mixed // the served arithmetic
	m := tagger.New(enc, cfg)

	rng := rand.New(rand.NewSource(4))
	sentences := make([]string, 12)
	for i := range sentences {
		s := ""
		for j := 0; j < 3+rng.Intn(6); j++ {
			s += words[rng.Intn(len(words))] + " "
		}
		sentences[i] = s + "."
	}
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = sentences[i%12] + " " + sentences[(i+1)%12] + " " + sentences[(i+5)%12]
	}

	// Even goroutines extract at the served precision, odd ones through the
	// float64 view index builds use: both forwards share the arena pool.
	taggers := []Tagger{m, tagger.ReferenceView{M: m}}
	want := make([][][]string, len(taggers))
	cached := make([]*Extractor, len(taggers))
	tagged := 0
	for k, tg := range taggers {
		serial := &Extractor{Tagger: tg, Pairer: allPairs{}}
		want[k] = make([][]string, len(texts))
		for i, txt := range texts {
			want[k][i] = serial.ExtractTags(txt)
			tagged += len(want[k][i])
		}
		cached[k] = &Extractor{Tagger: tg, Pairer: allPairs{}, Cache: extcache.New(64)}
	}
	if tagged == 0 {
		t.Fatal("the fixture extracts no tag at all; the comparison would be vacuous")
	}

	// The build-side fan-out: entities spread over GOMAXPROCS workers sharing
	// one cached extractor, results in input order, identical to the serial,
	// uncached extraction of each entity's texts.
	ids := make([]string, 4)
	byEntity := make([][]string, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprint("e", i)
		byEntity[i] = texts[4*i : 4*i+4]
	}
	build := &Extractor{Tagger: taggers[1], Pairer: allPairs{}, Cache: extcache.New(64)}
	built, err := EntityReviews(context.Background(), ids, byEntity, build.ExtractTags)
	if err != nil {
		t.Fatal(err)
	}
	for i, er := range built {
		var wantTags []string
		for _, tags := range want[1][4*i : 4*i+4] {
			wantTags = append(wantTags, tags...)
		}
		if er.EntityID != ids[i] || er.ReviewCount != 4 || fmt.Sprint(er.Tags) != fmt.Sprint(wantTags) {
			t.Fatalf("EntityReviews entity %d: %+v, want %s with tags %v", i, er, ids[i], wantTags)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, want := cached[g%2], want[g%2]
			for k := range texts {
				i := (k + 2*g) % len(texts)
				got, err := e.ExtractTagsCtx(context.Background(), nil, texts[i])
				if err != nil {
					t.Errorf("goroutine %d text %d: %v", g, i, err)
					return
				}
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("goroutine %d text %d: concurrent %v, serial %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCancelBetweenSentencesLeavesNoPartialResult pins the cancellation
// contract: a context that dies while the first sentence decodes aborts
// before the second with ctx's error and no partial tag list, and the
// sentence that was never decoded leaves no cache entry.
func TestCancelBetweenSentencesLeavesNoPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &stubTagger{onDecode: cancel}
	e := &Extractor{Tagger: st, Pairer: allPairs{}, Cache: extcache.New(64)}

	tags, err := e.ExtractTagsCtx(ctx, nil, "delicious food here. nice staff there.")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tags != nil {
		t.Fatalf("cancelled extraction returned partial tags %v", tags)
	}
	if _, ok := e.Cache.Get(0, "delicious\x1ffood\x1fhere\x1f."); !ok {
		t.Fatal("the sentence decoded before the cancellation is missing from the cache")
	}
	if _, ok := e.Cache.Get(0, "nice\x1fstaff\x1fthere\x1f."); ok {
		t.Fatal("the undecoded sentence was cached")
	}
}

// TestGenSwapDiscardsFill pins the retrain-overlap contract of the
// generation bracket in ExtractFromTokensTraced: a generation bump during
// the decode (a Train starting under it) still serves the result but caches
// nothing; with a stable generation the same extraction is cached.
func TestGenSwapDiscardsFill(t *testing.T) {
	st := &stubTagger{}
	st.onDecode = func() { st.gen.Add(1) }
	e := &Extractor{Tagger: st, Pairer: allPairs{}, Cache: extcache.New(64)}

	tags, err := e.ExtractTagsCtx(context.Background(), nil, "delicious food here")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tags) != "[delicious food]" {
		t.Fatalf("tags = %v despite gen bump (results must still be served)", tags)
	}
	if e.Cache.Len() != 0 {
		t.Fatalf("cache has %d entries; a generation bump under the decode must discard the fill", e.Cache.Len())
	}

	st.onDecode = nil
	if _, err := e.ExtractTagsCtx(context.Background(), nil, "delicious food here"); err != nil {
		t.Fatal(err)
	}
	if e.Cache.Len() != 1 {
		t.Fatalf("cache has %d entries after stable-generation decode, want 1", e.Cache.Len())
	}
}
