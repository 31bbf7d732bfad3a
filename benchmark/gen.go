package main

import (
	"fmt"
	"math/rand"
	"strings"

	"saccs"
	"saccs/internal/lexicon"
	"saccs/internal/yelp"
)

// Every utterance names the cuisine and the city, so the objective filter
// keeps the 280 indexed entities as candidates however many bare entities a
// write workload has streamed in beside them.
var firstOpeners = []string{
	"i want an italian restaurant in montreal with",
	"i am looking for an italian place in montreal with",
	"find me an italian restaurant in montreal with",
	"i would like an italian restaurant in montreal that has",
	"show me italian places in montreal with",
	"we need an italian restaurant in montreal with",
	"can you find an italian place in montreal that has",
	"any italian restaurant in montreal with",
	"looking for an italian spot in montreal with",
	"is there an italian restaurant in montreal with",
	"recommend an italian place in montreal with",
	"book me an italian restaurant in montreal that has",
}

var secondOpeners = []string{
	"it should also have",
	"we also want",
	"ideally it has",
	"bonus points for",
	"we care about",
	"it must have",
	"we would love",
	"my friends want",
	"do not forget",
	"we are hoping for",
	"extra credit for",
	"above all we need",
}

// intensifiers[0] is "none"; the rest prefix the first opinion of a sentence.
var intensifiers = []string{"", "really", "very", "absolutely", "quite", "truly", "incredibly"}

var closers = []string{"", "please", "tonight", "this weekend"}

// phrase is one opinion + aspect surface pair of a lexicon feature.
type phrase struct{ opinion, aspect string }

func (p phrase) String() string { return p.opinion + " " + p.aspect }

// phrasesOf lists every positive opinion × aspect variant of every feature,
// in lexicon order.
func phrasesOf(d *lexicon.Domain) []phrase {
	var out []phrase
	for _, f := range d.Features {
		for _, op := range f.PosOps {
			for _, asp := range f.AspectSyns {
				out = append(out, phrase{op, asp})
			}
		}
	}
	return out
}

const (
	// seedBlock is the number of consecutive positions of the cold
	// enumeration one seed owns. Ops take positions from the start of the
	// block and the traced run's sibling utterances from siblingBase on, so
	// neither repeats the other and two seeds never meet.
	seedBlock   = 1 << 18
	siblingBase = 3 << 16
	// The strides walk the enumeration; each is a prime larger than the
	// space, so position ↦ position·stride is a bijection of the space and
	// neighbouring positions land on unrelated sentences. The second
	// sentence has its own stride so that it does not echo the first.
	firstStride  = 2654435761
	secondStride = 2246822519
)

// coldGen enumerates utterances whose sentences never repeat: a sentence is
// opener × intensifier × closer × phrase × phrase (first and second sentences
// have openers of their own), and each position of the enumeration is
// visited once. The seed picks the block of positions.
type coldGen struct {
	phrases []phrase
	base    uint64 // first position of this seed's block
	next    uint64 // ops issued so far
	sibling uint64 // sibling utterances issued so far
}

func newColdGen(d *lexicon.Domain, seed int64) *coldGen {
	g := &coldGen{phrases: phrasesOf(d)}
	blocks := int64(g.space() / seedBlock)
	g.base = uint64((seed%blocks+blocks)%blocks) * seedBlock
	return g
}

// space is the number of distinct sentences of either kind (the two opener
// lists have the same length).
func (g *coldGen) space() uint64 {
	p := uint64(len(g.phrases))
	return uint64(len(firstOpeners)*len(intensifiers)*len(closers)) * p * p
}

// Next returns the next utterance of the op stream: two sentences at every
// fourth position, one at the others.
func (g *coldGen) Next() string {
	u := g.at(g.next)
	g.next++
	return u
}

// Sibling returns a never-issued utterance from the reserved tail of the
// seed's block — the traced run's stand-in for "this op again, uncached".
func (g *coldGen) Sibling() string {
	u := g.at(siblingBase + g.sibling%(seedBlock-siblingBase))
	g.sibling++
	return u
}

func (g *coldGen) at(k uint64) string {
	pos := g.base + k%seedBlock
	var b strings.Builder
	g.sentence(&b, firstOpeners, pos*firstStride%g.space())
	if k%4 == 3 {
		b.WriteByte(' ')
		g.sentence(&b, secondOpeners, pos*secondStride%g.space())
	}
	return b.String()
}

// digit peels one mixed-radix digit off idx.
func digit(idx *uint64, radix int) int {
	d := int(*idx % uint64(radix))
	*idx /= uint64(radix)
	return d
}

func (g *coldGen) sentence(b *strings.Builder, openers []string, idx uint64) {
	opener := openers[digit(&idx, len(openers))]
	intens := intensifiers[digit(&idx, len(intensifiers))]
	closer := closers[digit(&idx, len(closers))]
	pa := g.phrases[digit(&idx, len(g.phrases))]
	pb := g.phrases[digit(&idx, len(g.phrases))]
	b.WriteString(opener)
	b.WriteByte(' ')
	if intens != "" {
		b.WriteString(intens)
		b.WriteByte(' ')
	}
	b.WriteString(pa.String())
	b.WriteString(" and ")
	b.WriteString(pb.String())
	if closer != "" {
		b.WriteByte(' ')
		b.WriteString(closer)
	}
	b.WriteByte('.')
}

// warmPoolSize is the fixed working set of query_warm and of the warm share
// of serve_mixed; it fits the extraction cache 64 times over.
const warmPoolSize = 64

// warmPool is the same warmPoolSize utterances for every seed — the seed only
// shuffles their order — so that a pass over the pool is the same work
// whatever the seed. Even slots ask for canonical tags (the index keys
// IndexEntities was given, resolved exactly), odd slots for surface variants
// (unknown to the index, resolved through the similarity scan and its memo);
// every other pair of slots asks for two tags.
func warmPool(d *lexicon.Domain, seed int64) []string {
	variants := phrasesOf(d)
	pick := func(canonical bool, i int) string {
		if canonical {
			return d.Features[i%len(d.Features)].Name
		}
		// 37 shares no factor with the number of variants, so successive
		// slots walk all of them, feature after feature.
		return variants[i*37%len(variants)].String()
	}
	seen := map[string]bool{}
	var pool []string
	for n := 0; len(pool) < warmPoolSize; n++ {
		slot := len(pool)
		canonical := slot%2 == 0
		u := firstOpeners[n%len(firstOpeners)] + " " + pick(canonical, n)
		if slot%4 >= 2 {
			u += " and " + pick(canonical, n+7)
		}
		if !seen[u] {
			seen[u] = true
			pool = append(pool, u)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// appendOp is one streamed review and the entity it goes to.
type appendOp struct {
	EntityID string
	Review   string
}

// reviewStream deals reviews round-robin over groups of fresh entities:
// review j goes to entity j mod perGroup of group j ÷ (perGroup·each), so a
// group is exactly one segment of the workload, every entity ID is touched in
// one segment only, and the work per segment does not grow with the stream.
type reviewStream struct {
	prefix   string
	texts    []string
	perGroup int // fresh entities per group
	each     int // reviews per entity
	next     int
	ids      []string // every entity ID issued, in first-use order
	bytes    int64    // review text bytes issued
}

// The stream's review texts come from one generated world of their own —
// about 25 reviews for each of 800 entities, ~20 000 texts, more than a run
// appends — and the seed picks where in that list the stream starts. Every
// seed therefore streams the same kind of text, and none of it is a review
// the indexed world already holds.
const (
	streamWorldEntities = 800
	streamWorldSeed     = 7919
	streamStarts        = 64
)

func newReviewStream(prefix string, seed int64, perGroup, each int) *reviewStream {
	cfg := yelp.DefaultConfig()
	cfg.Entities = streamWorldEntities
	cfg.Seed = streamWorldSeed
	s := &reviewStream{prefix: prefix, perGroup: perGroup, each: each}
	for _, e := range yelp.Generate(cfg).Entities {
		for _, r := range e.Reviews {
			s.texts = append(s.texts, r.Text)
		}
	}
	start := int((seed%streamStarts+streamStarts)%streamStarts) * (len(s.texts) / streamStarts)
	s.texts = append(s.texts[start:], s.texts[:start]...)
	return s
}

// groupSize is the number of reviews in one group.
func (s *reviewStream) groupSize() int { return s.perGroup * s.each }

func (s *reviewStream) at(j int) appendOp {
	group, slot := j/s.groupSize(), j%s.perGroup
	return appendOp{
		EntityID: fmt.Sprintf("%s%05d-%02d", s.prefix, group, slot),
		Review:   s.texts[j%len(s.texts)],
	}
}

func (s *reviewStream) Next() appendOp {
	op := s.at(s.next)
	if s.next%s.groupSize() < s.perGroup {
		s.ids = append(s.ids, op.EntityID)
	}
	s.next++
	s.bytes += int64(len(op.Review))
	return op
}

// indexedWorld renders the paper-scale world (§6.1: 280 Italian restaurants
// in Montreal, ~7 000 reviews) as the facade's entities. It is the same world
// for every seed: the index a query ranks over and a publication merges into
// sets the cost of an op, and runs at different seeds must be comparable.
func indexedWorld() []saccs.Entity {
	w := yelp.Generate(yelp.DefaultConfig())
	out := make([]saccs.Entity, len(w.Entities))
	for i, e := range w.Entities {
		se := saccs.Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine}
		for _, r := range e.Reviews {
			se.Reviews = append(se.Reviews, r.Text)
		}
		out[i] = se
	}
	return out
}
