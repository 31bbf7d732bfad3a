package index

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"saccs/internal/race"
)

// ordinalWorld is a world big enough that tags post different, overlapping
// entity subsets — so numbering by "first seen while scanning postings" and
// numbering by ID would disagree.
func ordinalWorld() ([]string, []EntityReviews) {
	tags := []string{"good food", "nice staff", "creative cooking"}
	mixes := [][]string{
		{"creative cooking", "inventive cooking"},
		{"good food", "tasty food", "friendly staff"},
		{"rude staff"},
		{"friendly staff", "nice staff"},
		{"good food", "creative cooking", "friendly staff"},
	}
	es := make([]EntityReviews, 23)
	for i := range es {
		es[i] = EntityReviews{EntityID: fmt.Sprintf("e%02d", i), ReviewCount: 2 + i%9, Tags: mixes[i%len(mixes)]}
	}
	return tags, es
}

// checkSealed asserts the layout invariant every derivation must leave
// behind: each posting carries the ordinal of its own entity, and the table
// is a bijection.
func checkSealed(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	if len(s.ents.ids) != len(s.ents.ord) {
		t.Fatalf("%s: table has %d ids but %d ordinals", label, len(s.ents.ids), len(s.ents.ord))
	}
	for ord, id := range s.ents.ids {
		if got, ok := s.Ordinal(id); !ok || int(got) != ord || s.EntityID(got) != id {
			t.Fatalf("%s: ordinal table is not a bijection at %d/%q", label, ord, id)
		}
	}
	for _, tag := range s.order {
		p := s.tags[tag]
		if len(p.ords) != len(p.entries) {
			t.Fatalf("%s: tag %q has %d entries but %d ordinals", label, tag, len(p.entries), len(p.ords))
		}
		for i, e := range p.entries {
			if s.ents.ids[p.ords[i]] != e.EntityID {
				t.Fatalf("%s: tag %q posting %d is %q but carries the ordinal of %q", label, tag, i, e.EntityID, s.ents.ids[p.ords[i]])
			}
		}
	}
}

// TestSealAssignsIdenticalOrdinals: however a world reaches an index — one
// Build, a stream of MergeDelta rounds (entities arriving in ID order, as a
// replayed WAL delivers them), Load of the saved snapshot — seal numbers its
// entities identically, because new IDs are numbered in ID order per sealed
// batch and nothing else about a batch matters. Ordinals are never
// persisted, so the loaded index derives its own from the posting lists
// alone.
func TestSealAssignsIdenticalOrdinals(t *testing.T) {
	tags, es := ordinalWorld()
	built := testIndex()
	built.Build(tags, es)

	var saved bytes.Buffer
	if err := built.Save(&saved); err != nil {
		t.Fatal(err)
	}

	paths := []struct {
		name  string
		build func(t *testing.T) *Index
	}{
		{"MergeDelta stream", func(t *testing.T) *Index {
			ix := testIndex()
			ix.Build(tags, nil)
			for lo := 0; lo < len(es); lo += 4 {
				if err := ix.MergeDelta(context.Background(), tags, es[lo:min(lo+4, len(es))]); err != nil {
					t.Fatal(err)
				}
			}
			return ix
		}},
		{"Load", func(t *testing.T) *Index {
			ix := testIndex()
			if err := ix.Load(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatal(err)
			}
			return ix
		}},
	}
	want := built.Current()
	checkSealed(t, "Build", want)
	if want.NumEntities() == 0 || want.NumEntities() >= len(es) {
		t.Fatalf("fixture: %d of %d entities numbered; want some but not all (an entity no tag posts has no ordinal)", want.NumEntities(), len(es))
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			ix := p.build(t)
			got := ix.Current()
			checkSealed(t, p.name, got)
			var a, b bytes.Buffer
			if err := got.Save(&a); err != nil {
				t.Fatal(err)
			}
			if err := want.Save(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("fixture: the path did not reproduce the built world")
			}
			if got.NumEntities() != want.NumEntities() {
				t.Fatalf("numbered %d entities, Build numbered %d", got.NumEntities(), want.NumEntities())
			}
			for ord := int32(0); int(ord) < want.NumEntities(); ord++ {
				if got.EntityID(ord) != want.EntityID(ord) {
					t.Fatalf("ordinal %d is %q, Build made it %q", ord, got.EntityID(ord), want.EntityID(ord))
				}
			}
		})
	}
}

// TestOrdinalsAppendOnlyAcrossGenerations: along one Index's chain of
// generations an ID never changes ordinal — new tags, deltas that introduce
// entities (even ones sorting before every known ID), and a wholesale Load
// only append — and a pinned snapshot's table is untouched by all of it.
func TestOrdinalsAppendOnlyAcrossGenerations(t *testing.T) {
	tags, es := ordinalWorld()
	ix := testIndex()
	ix.Build(tags[:2], es[5:])
	pinned := ix.Current()
	before := append([]string(nil), pinned.ents.ids...)

	var saved bytes.Buffer
	if err := ix.Save(&saved); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		run  func()
	}{
		{"AddTag", func() { ix.AddTag(tags[2], es[5:]) }},
		{"MergeDelta of earlier-sorting entities", func() {
			if err := ix.MergeDelta(context.Background(), tags, es[:5]); err != nil {
				t.Fatal(err)
			}
		}},
		{"Load of an older, smaller world", func() {
			if err := ix.Load(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatal(err)
			}
		}},
	}
	prev := pinned
	for _, st := range steps {
		st.run()
		cur := ix.Current()
		checkSealed(t, st.name, cur)
		if cur.NumEntities() < prev.NumEntities() {
			t.Fatalf("%s: table shrank from %d to %d", st.name, prev.NumEntities(), cur.NumEntities())
		}
		for ord, id := range prev.ents.ids {
			if cur.ents.ids[ord] != id {
				t.Fatalf("%s: ordinal %d moved from %q to %q", st.name, ord, id, cur.ents.ids[ord])
			}
		}
		prev = cur
	}
	if prev.NumEntities() <= len(before) {
		t.Fatalf("fixture: the steps introduced no new entity")
	}
	if len(pinned.ents.ids) != len(before) || len(pinned.ents.ord) != len(before) {
		t.Fatalf("pinned snapshot's table grew from %d to %d ids / %d ordinals", len(before), len(pinned.ents.ids), len(pinned.ents.ord))
	}
	checkSealed(t, "pinned", pinned)
}

// TestLookupSimilarAllocsRegression pins the materialised similar-tag union's
// steady state: the prepared query tag, the scan's hits and the per-entity
// sums live in the pooled scratch, so a warm Resolve allocates its result
// slice and nothing else — in particular no map.
func TestLookupSimilarAllocsRegression(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop items and allocates on its own behalf")
	}
	tags, es := ordinalWorld()
	ix := testIndex()
	ix.Build(tags, es)
	snap := ix.Current()
	const unknown = "delicious food"
	if snap.Has(unknown) || len(snap.Resolve(unknown, 0.45)) < 5 {
		t.Fatalf("fixture: %q must miss the index and union several entities", unknown)
	}
	allocs := testing.AllocsPerRun(100, func() { snap.Resolve(unknown, 0.45) })
	if allocs > 1 {
		t.Fatalf("warm Resolve of an unknown tag allocates %v times per call, want 1 (the result)", allocs)
	}
}
