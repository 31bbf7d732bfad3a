package index

import (
	"bytes"
	"testing"

	"saccs/internal/sim"
)

// flatMeasure is a trivial deterministic similarity for persistence fuzzing:
// snapshot decode never consults it, and keeping it taxonomy-free keeps the
// fuzz loop fast.
var flatMeasure = sim.PhraseFunc(func(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0.3
})

// FuzzSnapshotDecode fuzzes Index.Load with adversarial bytes. Invariants:
// decode never panics; a rejected snapshot leaves the index unchanged; and an
// accepted snapshot is stable — re-saving the loaded index and loading that
// again reproduces the snapshot byte for byte.
func FuzzSnapshotDecode(f *testing.F) {
	// A well-formed snapshot, produced by Save.
	good := New(flatMeasure, 0.5)
	good.Build([]string{"good food", "nice staff"}, []EntityReviews{
		{EntityID: "vue", ReviewCount: 4, Tags: []string{"good food", "nice staff"}},
		{EntityID: "hut", ReviewCount: 2, Tags: []string{"good food"}},
	})
	var wellFormed bytes.Buffer
	if err := good.Save(&wellFormed); err != nil {
		f.Fatal(err)
	}
	f.Add(wellFormed.Bytes())
	// Corrupt shapes the decoder must reject without panicking (the same
	// cases are pinned as regression tests in persist_test.go).
	f.Add([]byte(`{"version":1,"tags":[{"tag":"a"`))
	f.Add([]byte(`{"version":99,"tags":[]}`))
	f.Add([]byte(`{"version":1,"tags":[{"tag":"","entries":[]}]}`))
	f.Add([]byte(`{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"x","Degree":0.5},{"EntityID":"x","Degree":0.4}]}]}`))
	f.Add([]byte(`{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"x","Degree":0.1},{"EntityID":"y","Degree":0.9}]}]}`))
	f.Add([]byte(`{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"x","Degree":-1}]}]}`))
	f.Add([]byte(`{"version":1,"tags":[]}garbage`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix := New(flatMeasure, 0.5)
		ix.Build([]string{"sentinel tag"}, []EntityReviews{
			{EntityID: "keep", ReviewCount: 1, Tags: []string{"sentinel tag"}},
		})
		wantTags := ix.Tags()

		if err := ix.Load(bytes.NewReader(data)); err != nil {
			// Rejected input must leave the index untouched.
			gotTags := ix.Tags()
			if len(gotTags) != len(wantTags) || gotTags[0] != wantTags[0] {
				t.Fatalf("failed Load mutated index: %v → %v (input %q)", wantTags, gotTags, data)
			}
			return
		}

		// Accepted input must round-trip byte-stably through Save/Load/Save.
		var first bytes.Buffer
		if err := ix.Save(&first); err != nil {
			t.Fatalf("save after accepted load: %v (input %q)", err, data)
		}
		re := New(flatMeasure, 0.5)
		if err := re.Load(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("own Save output rejected: %v (input %q)", err, data)
		}
		var second bytes.Buffer
		if err := re.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot not byte-stable (input %q):\nfirst:  %s\nsecond: %s", data, first.Bytes(), second.Bytes())
		}
	})
}
