package search

import (
	"slices"
	"sync"

	"saccs/internal/index"
)

// slot is the ranker's per-entity state for one rank, indexed by the
// snapshot's entity ordinal. The two stamps are valid only while they equal
// the scratch's current epoch, so starting a rank invalidates every slot by
// bumping one counter instead of clearing the array. Membership cannot be
// read off the degree cells themselves: an entity whose degrees are all zero
// is still in S_t and still counts toward coverage.
type slot struct {
	api      uint32 // == epoch: the entity is in S_api
	seen     uint32 // == epoch: some tag matched it; tag, coverage and its row are live
	tag      int32  // the last query tag (by position) that contributed a degree
	coverage int32  // how many query tags matched it: |{t : e ∈ S_t}|
}

// scratch is the pooled working memory of one rank: flat arrays indexed by
// entity ordinal where a map keyed by ID would otherwise be built and thrown
// away per query. It grows to the largest snapshot × tag count it has served and is reused across snapshots and indexes: ordinals from
// different indexes share slots safely because nothing survives an epoch.
type scratch struct {
	epoch uint32
	tags  int // cells per entity row
	slots []slot
	// cells holds the per-tag degree columns row-major by entity: ordinal o's
	// degrees for tags 0..tags-1 are cells[o*tags:(o+1)*tags], contiguous so
	// aggregation sorts them in place. A row is zeroed when its entity is
	// first matched; a tag that never matches it leaves its cell zero.
	cells   []float64
	matched []int32  // ordinals with seen == epoch, in first-match order
	tail    []string // unmatched API results (cleared before the scratch is pooled)
	// probe is the index's share of the scratch: the prepared query tag and
	// the similar keys of each unknown tag's vocabulary scan (reset before
	// the scratch is pooled).
	probe index.Scratch
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin readies the scratch for a rank of tags query tags over entities
// ordinals.
func (sc *scratch) begin(entities, tags int) {
	if len(sc.slots) < entities {
		sc.slots = make([]slot, entities)
	}
	if len(sc.cells) < entities*tags {
		sc.cells = make([]float64, entities*tags)
	}
	sc.tags = tags
	sc.epoch++
	if sc.epoch == 0 { // wrapped: a stale stamp could equal a reused epoch
		clear(sc.slots)
		sc.epoch = 1
	}
	sc.matched = sc.matched[:0]
}

// release returns the scratch to the pool, dropping the ID strings and the
// snapshot it borrowed so a pooled scratch pins no superseded snapshot's
// memory.
func (sc *scratch) release() {
	clear(sc.tail)
	sc.tail = sc.tail[:0]
	sc.probe.Reset()
	scratchPool.Put(sc)
}

// row returns ordinal ord's degree cells.
func (sc *scratch) row(ord int32) []float64 {
	return sc.cells[int(ord)*sc.tags : (int(ord)+1)*sc.tags]
}

// add records one contribution of degree to entity ord under query tag
// number tag, ignoring entities outside S_api, and reports whether it put
// the entity into that tag's S_t (its first contribution for the tag).
// Contributions must arrive tag by tag; several for one (entity, tag) — the
// similar-tag union — are summed in arrival order.
func (sc *scratch) add(ord int32, tag int, degree float64) bool {
	s := &sc.slots[ord]
	if s.api != sc.epoch {
		return false
	}
	cell := &sc.cells[int(ord)*sc.tags+tag]
	switch {
	case s.seen != sc.epoch:
		s.seen, s.tag, s.coverage = sc.epoch, int32(tag), 1
		clear(sc.row(ord))
		sc.matched = append(sc.matched, ord)
	case s.tag != int32(tag):
		s.tag = int32(tag)
		s.coverage++
	default:
		*cell += degree
		return false
	}
	*cell = degree
	return true
}

// unmatched returns the API results no tag matched — including the IDs the
// snapshot has no ordinal for — in ascending ID order without duplicates.
// Callers that hand over an ID-sorted candidate set (the facade does) pay
// one linear pass; anything else is sorted here.
func (sc *scratch) unmatched(cands Candidates) []string {
	sc.tail = sc.tail[:0]
	for i, id := range cands.ids {
		if ord := cands.ords[i]; ord < 0 || sc.slots[ord].seen != sc.epoch {
			sc.tail = append(sc.tail, id)
		}
	}
	if !slices.IsSorted(sc.tail) {
		slices.Sort(sc.tail)
	}
	return slices.Compact(sc.tail)
}

// heapify arranges h as a binary max-heap under Less: h[0] ranks after every
// other element, so a bounded top-k keeps its worst survivor at the root.
func heapify(h []Scored) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown restores the heap property below h[i].
func siftDown(h []Scored, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if Less(h[worst], h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
