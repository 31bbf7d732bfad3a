package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"saccs/internal/index"
)

// reviewTagsSHA256 hashes every entity's review tags in order: ID, review
// count and the tag list, one line per entity.
func reviewTagsSHA256(reviews []index.EntityReviews) string {
	h := sha256.New()
	for _, er := range reviews {
		fmt.Fprintf(h, "%s\x00%d\x00%s\n", er.EntityID, er.ReviewCount, strings.Join(er.Tags, "\x1f"))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTable2FastPinned pins fast-scale Table 2 bit for bit: the SHA-256 of
// the extracted review tags every SACCS row is indexed from, and every row's
// NDCG at %.17g. The values were recorded when Table 2 still extracted
// through a sentence-batched indexer of its own; they pin that moving it onto
// the one producer the server builds with (core.EntityReviews) changed no
// tag and no score. A change that means to move them must say why and
// re-record both.
func TestTable2FastPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 harness")
	}
	const wantTags = "8f6fc36571279205256d2f635637f1900c0c317107b2606e9e7e9b70eff7c600"
	wantRows := []string{
		`"IR": {0.76800680435955293, 0.8070549166085923, 0.84521091295586326}`,
		`"SIM - 1 att": {0.67542564664664861, 0.7567727587246228, 0.80523823754711976}`,
		`"SIM - 2 atts": {0.68836067916227295, 0.76470879702424621, 0.80842860060562616}`,
		`"SACCS - 6 tags": {0.64662088893655922, 0.75515310008393144, 0.80152804074414929}`,
		`"SACCS - 12 tags": {0.70919170677067345, 0.79375862125032981, 0.81737191663967401}`,
		`"SACCS - 18 tags": {0.80126276378226668, 0.83875237015015336, 0.85553423700014819}`,
	}
	env := BuildTable2Env(Fast, nil)
	if got := reviewTagsSHA256(env.Reviews); got != wantTags {
		t.Errorf("review tags SHA-256 %s, want %s", got, wantTags)
	}
	res := Table2From(env, nil)
	if len(res.Rows) != len(wantRows) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(wantRows))
	}
	for i, row := range res.Rows {
		got := fmt.Sprintf("%q: {%.17g, %.17g, %.17g}", row.System, row.Short, row.Medium, row.Long)
		if got != wantRows[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, wantRows[i])
		}
	}
}
