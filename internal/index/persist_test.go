package index

import (
	"bytes"
	"strings"
	"testing"
)

// TestLoadRejectsCorruptSnapshots pins the corrupt-input classes surfaced
// while fuzzing FuzzSnapshotDecode: every one must be rejected with an error
// (never a panic) and must leave the target index unchanged.
func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"truncated object", `{"version":1,"tags":[{"tag":"a"`},
		{"truncated entries", `{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"x","Deg`},
		{"empty input", ``},
		{"bare null", `null`},
		{"wrong top-level type", `[1,2,3]`},
		{"unknown version", `{"version":99,"tags":[]}`},
		{"missing version", `{"tags":[]}`},
		{"empty tag key", `{"version":1,"tags":[{"tag":"","entries":[]}]}`},
		{"duplicate tag", `{"version":1,"tags":[{"tag":"a","entries":[]},{"tag":"a","entries":[]}]}`},
		{"empty entity ID", `{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"","Degree":0.5}]}]}`},
		{"duplicate entity", `{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"x","Degree":0.5},{"EntityID":"x","Degree":0.4}]}]}`},
		{"negative degree", `{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"x","Degree":-1}]}]}`},
		{"overflowing degree", `{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"x","Degree":1e999}]}]}`},
		{"postings out of degree order", `{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"x","Degree":0.1},{"EntityID":"y","Degree":0.9}]}]}`},
		{"postings out of ID order on tie", `{"version":1,"tags":[{"tag":"a","entries":[{"EntityID":"y","Degree":0.5},{"EntityID":"x","Degree":0.5}]}]}`},
		{"trailing garbage", `{"version":1,"tags":[]}garbage`},
		{"second JSON value", `{"version":1,"tags":[]}{"version":1,"tags":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := testIndex()
			ix.Build([]string{"good food"}, entities())
			want := ix.Tags()
			err := ix.Load(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("corrupt snapshot accepted: %s", tc.input)
			}
			if !strings.HasPrefix(err.Error(), "index: ") {
				t.Fatalf("error not index-wrapped: %v", err)
			}
			got := ix.Tags()
			if len(got) != len(want) || got[0] != want[0] {
				t.Fatalf("failed Load mutated index: %v → %v", want, got)
			}
			if len(ix.Lookup("good food")) == 0 {
				t.Fatal("failed Load dropped postings")
			}
		})
	}
}

// TestLoadAcceptsBenignVariants documents what strict decoding still allows:
// whitespace padding, null posting lists, and unknown JSON fields.
func TestLoadAcceptsBenignVariants(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"trailing whitespace", "{\"version\":1,\"tags\":[]}\n\t "},
		{"null entries", `{"version":1,"tags":[{"tag":"a","entries":null}]}`},
		{"unknown fields", `{"version":1,"future":"field","tags":[{"tag":"a","entries":[],"extra":1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := testIndex()
			if err := ix.Load(strings.NewReader(tc.input)); err != nil {
				t.Fatalf("benign snapshot rejected: %v", err)
			}
		})
	}
}

// TestSaveLoadSaveByteStable checks that persistence is a fixed point: the
// snapshot of a loaded snapshot is byte-identical to the original.
func TestSaveLoadSaveByteStable(t *testing.T) {
	ix := testIndex()
	ix.Build([]string{"good food", "nice staff", "amazing pizza"}, entities())
	var first bytes.Buffer
	if err := ix.Save(&first); err != nil {
		t.Fatal(err)
	}
	re := testIndex()
	if err := re.Load(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := re.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("snapshot not byte-stable:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
	}
}

// TestLoadRejectsStackFraming pins the retirement of the version-2 base/delta
// stack framing: a version-2 file of any kind is an unsupported version, and
// a version-1 file must not carry the stack's kind, seq or entities fields.
// Every rejection leaves the index unchanged.
func TestLoadRejectsStackFraming(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"delta into Load", `{"version":2,"kind":"delta","seq":7,"theta_index":0.6,"entities":["x"],"tags":[]}`},
		{"v1 with kind", `{"version":1,"kind":"full","theta_index":0.6,"tags":[]}`},
		{"v1 with seq", `{"version":1,"seq":3,"theta_index":0.6,"tags":[]}`},
		{"v1 with entities", `{"version":1,"theta_index":0.6,"entities":["x"],"tags":[]}`},
		{"v2 unknown kind", `{"version":2,"kind":"merge","seq":3,"theta_index":0.6,"tags":[]}`},
		{"v2 missing kind", `{"version":2,"seq":3,"theta_index":0.6,"tags":[]}`},
		{"v2 full with entities", `{"version":2,"kind":"full","seq":3,"theta_index":0.6,"entities":["x"],"tags":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := testIndex()
			ix.Build([]string{"good food"}, entities())
			if err := ix.Load(strings.NewReader(tc.input)); err == nil {
				t.Fatalf("bad framing accepted: %s", tc.input)
			}
			if len(ix.Lookup("good food")) == 0 {
				t.Fatal("failed Load mutated index")
			}
		})
	}
}
