package index

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"saccs/internal/lexicon"
	"saccs/internal/race"
	"saccs/internal/sim"
)

// wordsOf is where the prepared record of key i keeps its content words: two
// generations share a record exactly when they read the same array.
func wordsOf(s *Snapshot, i int) uintptr {
	return reflect.ValueOf(s.keys[i]).FieldByName("words").Pointer()
}

func checkKeysAligned(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	if len(s.keys) != len(s.order) {
		t.Fatalf("%s: %d prepared records for %d keys", label, len(s.keys), len(s.order))
	}
	for i, key := range s.order {
		var fresh sim.Prepared
		s.measure.Prepare(key, &fresh)
		if !reflect.DeepEqual(fresh, s.keys[i]) {
			t.Fatalf("%s: record %d is not key %q prepared", label, i, key)
		}
	}
}

// TestPreparedKeysSharedAcrossGenerations: a key is prepared when it first
// enters a generation and the record is carried, not rebuilt, into every
// generation derived from it — by Build, AddTag, a re-bound posting list or
// a delta — while Load, which replaces the contents wholesale, prepares
// every key afresh and leaves the index bytes as they were.
func TestPreparedKeysSharedAcrossGenerations(t *testing.T) {
	tags := []string{"good food", "nice staff"}
	ix := testIndex()
	ix.Build(tags, entities())
	first := ix.Current()
	checkKeysAligned(t, "build", first)

	ix.Build([]string{"good food"}, entities()) // re-bound, not new
	ix.AddTag("creative cooking", entities())
	dirty := []EntityReviews{{EntityID: "vue", ReviewCount: 5, Tags: []string{"good food", "friendly staff"}}}
	if err := ix.MergeDelta(context.Background(), []string{"good food", "friendly staff"}, dirty); err != nil {
		t.Fatal(err)
	}
	last := ix.Current()
	checkKeysAligned(t, "derived", last)
	if len(last.keys) != 4 {
		t.Fatalf("fixture: %d keys, want the two built, the one added and the delta's new one", len(last.keys))
	}
	for i := range first.keys {
		if wordsOf(first, i) != wordsOf(last, i) {
			t.Fatalf("key %q was prepared again on the way to generation %d", first.order[i], last.Generation())
		}
	}

	var saved bytes.Buffer
	if err := ix.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := ix.Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	loaded := ix.Current()
	checkKeysAligned(t, "load", loaded)
	for i := range last.keys {
		if wordsOf(loaded, i) == wordsOf(last, i) {
			t.Fatalf("Load kept key %q's record instead of preparing it", last.order[i])
		}
	}
	var resaved bytes.Buffer
	if err := ix.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
		t.Fatal("index bytes changed across Load")
	}
}

// TestResolveOrdinalsUnknownTagAllocs pins the read path this package exists
// for: with a warm scratch, answering a tag the index does not hold —
// prepare it, scan every key, report every similar key's postings —
// allocates nothing.
func TestResolveOrdinalsUnknownTagAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	tags, es := ordinalWorld()
	ix := testIndex()
	ix.Build(tags, es)
	snap := ix.Current()
	const unknown = "delicious food"
	var sc Scratch
	var sum float64
	probe := func() {
		sc.Reset()
		n, err := snap.ResolveOrdinals(context.Background(), unknown, 0.45, &sc, func(_ int32, degree float64) { sum += degree })
		if err != nil || n < 5 {
			t.Fatalf("fixture: %q must miss the index and read several postings: %d, %v", unknown, n, err)
		}
	}
	if snap.Has(unknown) {
		t.Fatalf("fixture: %q is indexed", unknown)
	}
	probe()
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Fatalf("warm unknown-tag ResolveOrdinals allocates %v times per call, want 0", allocs)
	}
}

// countingMeasure counts the Score calls that reach the conceptual measure.
type countingMeasure struct {
	sim.Measure
	scores atomic.Int64
}

func (c *countingMeasure) Score(a, b *sim.Prepared) (float64, bool) {
	c.scores.Add(1)
	return c.Measure.Score(a, b)
}

// TestScratchScansOncePerDistinctTag: within one scratch a repeated unknown
// tag replays its first scan — the same postings with the same degrees in the
// same order — instead of scoring the vocabulary again; another tag, another
// threshold or another snapshot scans afresh.
func TestScratchScansOncePerDistinctTag(t *testing.T) {
	tags, es := ordinalWorld()
	m := &countingMeasure{Measure: sim.NewConceptual()}
	ix := New(m, 0.6)
	ix.Build(tags, es)
	snap := ix.Current()
	type call struct {
		ord    int32
		degree float64
	}
	var sc Scratch
	probe := func(s *Snapshot, tag string, theta float64) (calls []call, scored int64) {
		before := m.scores.Load()
		if _, err := s.ResolveOrdinals(context.Background(), tag, theta, &sc, func(ord int32, degree float64) {
			calls = append(calls, call{ord, degree})
		}); err != nil {
			t.Fatal(err)
		}
		return calls, m.scores.Load() - before
	}
	keys := int64(len(tags))
	first, scored := probe(snap, "delicious food", 0.45)
	if scored != keys || len(first) == 0 {
		t.Fatalf("first probe scored %d pairs for %d keys and reported %d postings", scored, keys, len(first))
	}
	if _, scored := probe(snap, "kind staff", 0.45); scored != keys {
		t.Fatalf("a second unknown tag scored %d pairs, want %d", scored, keys)
	}
	again, scored := probe(snap, "delicious food", 0.45)
	if scored != 0 {
		t.Fatalf("the repeated tag scored %d pairs, want a replay", scored)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("replay reported %v, first scan %v", again, first)
	}
	if _, scored := probe(snap, "good food", 0.45); scored != 0 {
		t.Fatalf("an indexed tag scored %d pairs", scored)
	}
	if _, scored := probe(snap, "delicious food", 0.3); scored != keys {
		t.Fatalf("another threshold scored %d pairs, want %d", scored, keys)
	}
	ix.AddTag("friendly staff", es)
	if _, scored := probe(ix.Current(), "delicious food", 0.3); scored != keys+1 {
		t.Fatalf("another snapshot scored %d pairs, want %d", scored, keys+1)
	}
	sc.Reset()
	if _, scored := probe(ix.Current(), "delicious food", 0.3); scored != keys+1 {
		t.Fatalf("a reset scratch scored %d pairs, want %d", scored, keys+1)
	}
}

// TestResolveOrdinalsCancelledMidScan: a context that expires during the
// vocabulary scan aborts the probe before anything is reported and leaves the
// scratch without a half-recorded scan.
func TestResolveOrdinalsCancelledMidScan(t *testing.T) {
	tags, es := ordinalWorld()
	for i := 0; len(tags) <= 2*simScanCheckEvery; i++ {
		tags = append(tags, fmt.Sprintf("good food %d", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ix := New(sim.PhraseFunc(func(_, key string) float64 {
		if key == tags[simScanCheckEvery] {
			cancel() // seen by the poll one simScanCheckEvery later
		}
		return 0.9
	}), 0.6)
	ix.Build(tags, es)
	var sc Scratch
	n, err := ix.Current().ResolveOrdinals(ctx, "unknown tag", 0.45, &sc, func(int32, float64) {
		t.Fatal("a cancelled probe reported a posting")
	})
	if err != context.Canceled || n != 0 {
		t.Fatalf("cancelled scan returned %d, %v", n, err)
	}
	if len(sc.scans) != 0 || len(sc.hits) != 0 {
		t.Fatalf("cancelled scan left %d scans, %d hits in the scratch", len(sc.scans), len(sc.hits))
	}
}

// BenchmarkResolveOrdinalsUnknownTag measures an unknown tag's probe —
// prepare, scan, report — against vocabularies of 18 keys (the §6.1 index)
// and 4 096 (one Reindex's worth of history): the per-key scan cost DESIGN.md
// quotes when it says what bounds Snapshot.order.
func BenchmarkResolveOrdinalsUnknownTag(b *testing.B) {
	var canonical []string
	for _, f := range lexicon.Restaurants().Features {
		canonical = append(canonical, f.Name)
	}
	_, es := ordinalWorld()
	for _, keys := range []int{len(canonical), 4096} {
		tags := append([]string(nil), canonical...)
		for i := 0; len(tags) < keys; i++ {
			f := lexicon.Restaurants().Features[i%len(canonical)]
			tags = append(tags, fmt.Sprintf("%s %s v%d", f.PosOps[i%len(f.PosOps)], f.AspectSyns[i%len(f.AspectSyns)], i))
		}
		ix := testIndex()
		ix.Build(tags, es)
		snap := ix.Current()
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			var sc Scratch
			var sum float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.Reset()
				if _, err := snap.ResolveOrdinals(context.Background(), "amazing pizza", 0.45, &sc, func(_ int32, d float64) { sum += d }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(keys), "ns/key")
		})
	}
}
