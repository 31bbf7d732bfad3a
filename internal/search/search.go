// Package search implements the conversational plumbing of §3: a dialog shim
// with intent recognition and slot filling (the capabilities the paper
// assumes of the underlying dialog system), and the filtering & ranking of
// Algorithm 1 with the §3.3 aggregation strategies. The objective search API
// whose answer Algorithm 1 re-filters (the paper's TripAdvisor/Yelp role) is
// the caller's: the saccs facade's objective filter, or every entity for a
// Table 2 query, which carries no slots.
package search

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"saccs/internal/index"
	"saccs/internal/obs"
)

// Intent is the dialog system's reading of an utterance: intent name plus
// objective slots (§3's intent recognition + slot filling).
type Intent struct {
	Name  string
	Slots map[string]string
}

// Slot names the shim can fill.
const (
	SlotCuisine  = "cuisine"
	SlotLocation = "location"
)

var cuisines = []string{"italian", "french", "japanese", "mexican", "indian", "chinese"}

var locations = []string{"montreal", "melbourne", "lyon", "paris", "toronto", "sydney"}

// ParseUtterance runs the lightweight intent recognizer and slot filler. Any
// utterance asking for a place to eat maps to the searchRestaurant intent;
// cuisine and location slots are keyword-filled: the first cuisine in
// cuisines order that the utterance mentions, then the first location in
// locations order. Keywords match whole words only — "comparison" does not
// fill location=paris, nor "indiana-style" cuisine=indian. A word is a
// maximal run of runes that lowercase (as strings.ToLower does) to a-z or
// 0-9; the fields are matched in place, without lowering a copy.
func ParseUtterance(utterance string) Intent {
	cuisine, location := len(cuisines), len(locations)
	match := func(word string) {
		cuisine = min(cuisine, keywordIndex(word, cuisines[:cuisine]))
		location = min(location, keywordIndex(word, locations[:location]))
	}
	start := -1
	for i, r := range utterance {
		if _, ok := slotRune(r); ok {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			match(utterance[start:i])
			start = -1
		}
	}
	if start >= 0 {
		match(utterance[start:])
	}
	in := Intent{Name: "searchRestaurant", Slots: map[string]string{}}
	if cuisine < len(cuisines) {
		in.Slots[SlotCuisine] = cuisines[cuisine]
	}
	if location < len(locations) {
		in.Slots[SlotLocation] = locations[location]
	}
	return in
}

// keywordIndex returns the index of the first keyword in vocab that word
// spells, or len(vocab) if it spells none.
func keywordIndex(word string, vocab []string) int {
	for k, kw := range vocab {
		if spells(word, kw) {
			return k
		}
	}
	return len(vocab)
}

// spells reports whether word, lowered rune by rune by slotRune, is the
// ASCII keyword kw.
func spells(word, kw string) bool {
	j := 0
	for _, r := range word {
		if j == len(kw) {
			return false
		}
		if lr, _ := slotRune(r); lr != rune(kw[j]) {
			return false
		}
		j++
	}
	return j == len(kw)
}

// slotRune lowers r as strings.ToLower does (so U+0130 'İ' becomes 'i') and
// reports whether the result is a word rune: a-z or 0-9. Invalid UTF-8
// decodes to utf8.RuneError, which is not.
func slotRune(r rune) (rune, bool) {
	if r < utf8.RuneSelf {
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
	} else {
		r = unicode.ToLower(r)
	}
	return r, 'a' <= r && r <= 'z' || '0' <= r && r <= '9'
}

// Aggregation selects how degrees of truth combine across tags (§3.3).
type Aggregation int

// The §3.3 strategies: arithmetic mean (the paper's choice), product, min.
const (
	MeanAgg Aggregation = iota
	ProductAgg
	MinAgg
)

// Scored is one ranked entity. Coverage is the number of query tags the
// entity matched (line 11's intersection cardinality): the primary sort key
// of Algorithm 1's relaxed ranking, carried on the result so independently
// ranked partitions can be merged under the exact same coverage/score/ID
// order the single index produces.
type Scored struct {
	EntityID string
	Score    float64
	Coverage int
}

// Ranker implements Algorithm 1 over one pinned generation of the subjective
// tag index. It takes the immutable snapshot itself, not the live index:
// every tag of a rank resolves against the same generation, and the dense
// entity ordinals the ranker works in are only meaningful within one
// snapshot. Callers holding an *index.Index pin Current() once per rank.
type Ranker struct {
	Snap *index.Snapshot
	// ThetaFilter is the θ_filter similarity threshold of Algorithm 1.
	ThetaFilter float64
	// Agg is the cross-tag aggregation (§3.3; mean works best).
	Agg Aggregation
}

// Candidates is S_api numbered for one index generation: the objective
// API's entity IDs and, in parallel, their ordinals in the snapshot they were
// resolved against (-1 for an ID that snapshot has never numbered). Ordinals
// mean something only within that generation, so TopK refuses Candidates
// resolved against any other. A Candidates value is read-only once built: a
// caller that ranks the same API answer many times against one generation
// (the facade memoises one per slot key and generation) resolves it once and
// shares it across goroutines. It holds the generation's number, not the
// snapshot, so keeping one pins no superseded generation's memory.
//
// Generation numbers are per index: Candidates must be ranked against a
// snapshot of the index they were resolved on.
type Candidates struct {
	ids  []string
	ords []int32
	gen  uint64
}

// NewCandidates resolves the API result IDs against snap: one ID → ordinal
// lookup per ID. ids is retained, not copied, and must not be written to
// afterwards.
func NewCandidates(snap *index.Snapshot, ids []string) Candidates {
	ords := make([]int32, len(ids))
	for i, id := range ids {
		ord, ok := snap.Ordinal(id)
		if !ok {
			ord = -1
		}
		ords[i] = ord
	}
	return Candidates{ids: ids, ords: ords, gen: snap.Generation()}
}

// Len returns the number of API results.
func (c Candidates) Len() int { return len(c.ids) }

// Generation returns the index generation the ordinals were resolved in.
func (c Candidates) Generation() uint64 { return c.gen }

// ErrStaleCandidates is why TopK refuses Candidates resolved against another
// generation than the ranker's snapshot: their ordinals would stamp the wrong
// entities.
var ErrStaleCandidates = errors.New("search: candidates resolved against another index generation")

// Rank is TopK unbounded over apiResults resolved against r.Snap, without
// tracing or cancellation: the full total order over apiResults.
func (r *Ranker) Rank(apiResults []string, tags []string) []Scored {
	// context.Background is never cancelled and the candidates are resolved
	// against r.Snap, so the error path is dead.
	out, _ := r.TopK(context.Background(), nil, NewCandidates(r.Snap, apiResults), tags, 0)
	return out
}

// TopK executes lines 6–12 of Algorithm 1 and returns the first k results
// (all of them when k <= 0): resolve each subjective tag to a scored entity
// set (exact hit or similar-tag union), intersect with the API's objective
// result set, aggregate per-entity scores across tags, and order descending.
// The strict intersection across all tags (line 11) ranks first; entities
// covering fewer tags follow, ordered by coverage then score, and API
// results no tag matched fill the tail in ID order — with no subjective
// signal to separate them, that keeps the ranking total and independent of
// the API's result order while guaranteeing a full answer when the
// intersection is small. With no tags at all the API results pass through
// unranked. The whole output is ordered by Less, so a bounded k is a
// selection, not a sort of everything followed by a cut.
//
// Each tag's index probe is an "index.resolve" stage under parent: a child
// span annotated with the tag, the postings it read and how many of them were
// API results when parent is live, else only a duration added to the
// request's stage sums; a nil parent costs nothing. The context is polled
// before each probe and periodically inside a probe's similarity scan: a
// cancelled or expired context aborts with ctx's error and no partial
// results, the failed probe's span carrying a cancelled/deadline status.
func (r *Ranker) TopK(ctx context.Context, parent *obs.Span, cands Candidates, tags []string, k int) ([]Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if gen := r.Snap.Generation(); cands.gen != gen {
		return nil, fmt.Errorf("%w: resolved against generation %d, ranking generation %d", ErrStaleCandidates, cands.gen, gen)
	}
	if len(tags) == 0 {
		out := make([]Scored, bound(len(cands.ids), k))
		for i := range out {
			out[i].EntityID = cands.ids[i]
		}
		return out, nil
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.begin(r.Snap.NumEntities(), len(tags))

	// S_api as a stamp per ordinal. An ID the snapshot has no ordinal for
	// appears in no posting list, so it can only ever rank in the tail.
	for _, ord := range cands.ords {
		if ord >= 0 {
			sc.slots[ord].api = sc.epoch
		}
	}

	// S_t per tag, restricted to S_api, written into the entity's row of
	// degree cells.
	for i, tag := range tags {
		// The attributes are set only on a live span: boxing them allocates
		// whether or not there is a span to take them. The stage has no
		// observer: the index times resolves in its own histogram.
		st := obs.BeginStage(nil, parent, "index.resolve")
		sp := st.Span()
		if sp.Live() {
			sp.Set("tag", tag)
		}
		inAPI := 0
		n, err := r.Snap.ResolveOrdinals(ctx, tag, r.ThetaFilter, &sc.probe, func(ord int32, degree float64) {
			if sc.add(ord, i, degree) {
				inAPI++
			}
		})
		if err != nil {
			st.EndErr(err)
			return nil, err
		}
		if sp.Live() {
			sp.Set("postings", n).Set("in_api", inAPI)
		}
		st.End()
	}

	// Every matched entity precedes every unmatched one under Less (coverage
	// ≥ 1 against 0), so the tail is needed only when k reaches past them.
	matched := len(sc.matched)
	total := matched
	var tail []string
	if k <= 0 || k > matched {
		tail = sc.unmatched(cands)
		total += len(tail)
	}
	out := make([]Scored, 0, bound(total, k))
	for _, ord := range sc.matched {
		s := Scored{EntityID: r.Snap.EntityID(ord), Score: r.aggregate(sc.row(ord)), Coverage: int(sc.slots[ord].coverage)}
		switch {
		case len(out) < cap(out):
			out = append(out, s)
			if len(out) == cap(out) && cap(out) < matched {
				heapify(out)
			}
		case Less(s, out[0]):
			// out is full and a max-heap under Less: its root is the worst
			// result kept so far, and s beats it.
			out[0] = s
			siftDown(out, 0)
		}
	}
	slices.SortFunc(out, compareScored)
	for _, id := range tail {
		if len(out) == cap(out) {
			break
		}
		out = append(out, Scored{EntityID: id})
	}
	return out, nil
}

// aggregate computes the §3.3 cross-tag score from one entity's per-tag
// degrees, sorting them in place. Missing tags contribute zero (mean), or
// collapse the score (product/min) — which is why the mean behaves best once
// the intersection is relaxed. The degrees are combined in sorted order:
// float addition and multiplication are not associative, so a fixed
// combination order is what makes the final score — and therefore the
// ranking — independent of the query's tag order.
func (r *Ranker) aggregate(vals []float64) float64 {
	slices.Sort(vals)
	switch r.Agg {
	case ProductAgg:
		p := 1.0
		for _, v := range vals {
			p *= v
		}
		return p
	case MinAgg:
		return vals[0]
	default:
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
}

// Less is the deterministic total order of Algorithm 1's relaxed ranking:
// coverage descending, then aggregate score descending, then entity ID
// ascending. TopK selects and sorts by it, and scatter-gather merges re-apply
// it so a merge of independently ranked partitions is byte-identical to
// ranking the union.
func Less(a, b Scored) bool { return compareScored(a, b) < 0 }

// compareScored is Less as a three-way comparison.
func compareScored(a, b Scored) int {
	switch {
	case a.Coverage != b.Coverage:
		if a.Coverage > b.Coverage {
			return -1
		}
		return 1
	case a.Score != b.Score:
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(a.EntityID, b.EntityID)
}

// Truncate caps a ranked list at k entries; k <= 0 leaves it unbounded.
func Truncate(s []Scored, k int) []Scored { return s[:bound(len(s), k)] }

// bound is the length of a list of n results capped at k; k <= 0 is no cap.
func bound(n, k int) int {
	if k > 0 && k < n {
		return k
	}
	return n
}
