package saccs

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"saccs/internal/core"
	"saccs/internal/experiments"
	"saccs/internal/index"
	"saccs/internal/sim"
)

// TestIndexBuildPathsAgree builds the fast yelp world's 18-tag index twice:
// through the facade (New(DefaultConfig()) + IndexEntities), as the server
// builds it, and from Table 2's environment, which scores it. Built over the
// same tag list, the saved bytes must be identical; Table 2's own index,
// built in its shuffled growth order, must hold the same postings under
// every tag. Table 2 measures the index the server serves.
func TestIndexBuildPathsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the served pipeline and the Table 2 pipeline")
	}
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	canon := c.CanonicalTags()
	if err := c.IndexEntities(goldenWorld(), canon); err != nil {
		t.Fatal(err)
	}
	env := experiments.BuildTable2Env(experiments.Fast, nil)
	table2 := index.New(sim.NewConceptual(), core.ThetaIndex)
	table2.Build(canon, env.Reviews)
	var servedBytes, table2Bytes bytes.Buffer
	if err := c.SaveIndex(&servedBytes); err != nil {
		t.Fatal(err)
	}
	if err := table2.Save(&table2Bytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(servedBytes.Bytes(), table2Bytes.Bytes()) {
		t.Fatalf("Table 2's index differs from the served one (%d vs %d bytes)", table2Bytes.Len(), servedBytes.Len())
	}
	served, grown := c.w.Load().ix, env.Index(len(canon))
	if grown.Len() != len(canon) {
		t.Fatalf("Table 2 indexed %d tags, want %d", grown.Len(), len(canon))
	}
	for _, tag := range canon {
		if got, want := grown.Lookup(tag), served.Lookup(tag); !reflect.DeepEqual(got, want) {
			t.Fatalf("tag %q: Table 2 postings %v, served %v", tag, got, want)
		}
	}
}

// historyTestClient returns a clone of the shared client, so the shared
// client keeps the golden world later tests pin, indexed over two tags.
func historyTestClient(t *testing.T) *Client {
	t.Helper()
	c := cloneForTest(t, newClient(t), DefaultConfig())
	if err := c.IndexEntities(demoEntities(), []string{"delicious food", "nice staff"}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQueryTagsKnownTagNotQueued checks that QueryTags answers an indexed
// tag from the index and never queues it in the history (Fig. 1).
func TestQueryTagsKnownTagNotQueued(t *testing.T) {
	c := historyTestClient(t)
	if len(c.QueryTags([]string{"delicious food"})) == 0 {
		t.Fatal("known tag answered nothing")
	}
	if got := c.w.Load().history.Len(); got != 0 {
		t.Fatalf("a known tag queued: history holds %d", got)
	}
}

// TestQueryTagsUnknownTagGoesToHistoryAndNextRound checks the adaptive loop
// of Fig. 1 on QueryTags: an unknown tag queues once, Reindex indexes it,
// and afterwards it answers directly from its own posting list.
func TestQueryTagsUnknownTagGoesToHistoryAndNextRound(t *testing.T) {
	c := historyTestClient(t)
	c.QueryTags([]string{"Creative Cooking"})
	c.QueryTags([]string{"creative cooking"})
	if got := c.w.Load().history.Pending(); !slices.Equal(got, []string{"creative cooking"}) {
		t.Fatalf("history %v, want the unknown tag once, lowercased", got)
	}
	if added := c.Reindex(); !slices.Equal(added, []string{"creative cooking"}) {
		t.Fatalf("Reindex added %v", added)
	}
	snap := c.w.Load().ix.Current()
	if !snap.Has("creative cooking") {
		t.Fatal("pending tag not indexed")
	}
	got := c.QueryTags([]string{"creative cooking"})
	want := snap.Lookup("creative cooking")
	if len(want) == 0 || len(got) == 0 || got[0].ID != want[0].EntityID {
		t.Fatalf("indexed tag must answer from its postings: got %v, postings %v", got, want)
	}
	if got := c.w.Load().history.Len(); got != 0 {
		t.Fatalf("an indexed tag queued again: history holds %d", got)
	}
}

// TestObjectiveFilter checks the facade's §3.2 objective API: no slots keep
// every entity, each slot filters case-insensitively on its field, and a
// slot no entity has keeps none.
func TestObjectiveFilter(t *testing.T) {
	w := newWorld(demoEntities(), nil, index.New(nil, 0), index.NewHistory())
	for _, tc := range []struct {
		key  candidateKey
		want []string
	}{
		{candidateKey{}, []string{"anchovy", "hut", "vue"}},
		{candidateKey{cuisine: "italian"}, []string{"anchovy", "hut", "vue"}},
		{candidateKey{location: "montreal"}, []string{"hut", "vue"}},
		{candidateKey{cuisine: "italian", location: "melbourne"}, []string{"anchovy"}},
		{candidateKey{cuisine: "french"}, nil},
		{candidateKey{cuisine: "italian", location: "paris"}, nil},
	} {
		if got := objectiveFilter(w, tc.key); !slices.Equal(got, tc.want) {
			t.Errorf("%+v: %v, want %v", tc.key, got, tc.want)
		}
	}
}
