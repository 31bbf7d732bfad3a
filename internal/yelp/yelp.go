// Package yelp generates the synthetic stand-in for the Yelp Open Dataset of
// §6.1: a world of entities (by default 280 Italian restaurants in Montreal,
// ~7000 reviews — the paper's filtered slice), each with a hidden latent
// quality vector over the domain's subjective features. Reviews are text
// renderings of noisy samples from that latent vector; star ratings
// aggregate it coarsely (the paper's §1 critique of star ratings); Yelp-style
// queryable attributes (NoiseLevel, Ambience, GoodForGroups, ...) quantize a
// few of its coordinates — exactly the coarse signal the SIM baseline of
// §6.2 gets to use.
package yelp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"saccs/internal/corpus"
	"saccs/internal/lexicon"
)

// Review is one generated review: surface text plus the (hidden) gold
// annotation used only by the crowd simulator.
type Review struct {
	EntityID string
	// Sentences carry the gold mention structure; Text is what systems see.
	Sentences []corpus.Sentence
	Text      string
}

// GoldTags renders the review's gold mentions as "<opinion> <aspect>" tags,
// each distinct tag once in first-mention order — the same per-review dedup
// the extractor applies (core.Extractor.ExtractTags), so gold and extracted
// review tags enter Eq. 1 under one rule. It is the gold ablation's input to
// core.EntityReviews, isolating index and ranking from extraction noise.
func (r *Review) GoldTags() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range r.Sentences {
		for _, m := range s.Mentions {
			tag := m.OpinionText(s.Tokens) + " " + m.AspectText(s.Tokens)
			if !seen[tag] {
				seen[tag] = true
				out = append(out, tag)
			}
		}
	}
	return out
}

// Entity is one business.
type Entity struct {
	ID      string
	Name    string
	City    string
	Cuisine string
	// Quality is the latent per-feature quality in [0,1] — the ground truth
	// reviews are sampled from. Index = lexicon.Feature.ID.
	Quality []float64
	// Stars is the 1–5 aggregate rating derived from Quality plus noise.
	Stars float64
	// Attrs are Yelp-style queryable attribute values.
	Attrs   map[string]string
	Reviews []*Review
}

// World is the generated dataset.
type World struct {
	Domain   *lexicon.Domain
	Entities []*Entity
}

// ReviewCount returns the total number of reviews in the world.
func (w *World) ReviewCount() int {
	n := 0
	for _, e := range w.Entities {
		n += len(e.Reviews)
	}
	return n
}

// IDs returns the entity IDs in world order.
func (w *World) IDs() []string {
	out := make([]string, len(w.Entities))
	for i, e := range w.Entities {
		out[i] = e.ID
	}
	return out
}

// Reviews returns each entity's reviews in world order, parallel to IDs —
// the shape core.EntityReviews consumes.
func (w *World) Reviews() [][]*Review {
	out := make([][]*Review, len(w.Entities))
	for i, e := range w.Entities {
		out[i] = e.Reviews
	}
	return out
}

// Entity returns the entity with the given id, or nil.
func (w *World) Entity(id string) *Entity {
	for _, e := range w.Entities {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// Config tunes world generation.
type Config struct {
	// Entities is the number of businesses (paper slice: 280).
	Entities int
	// MeanReviews is the mean reviews per entity (paper slice: ~25).
	MeanReviews int
	// Seed drives all randomness.
	Seed int64
	// City and Cuisine fill the objective slots.
	City, Cuisine string
	// PolarityNoise is the probability a review mention contradicts the
	// latent quality (reviewer disagreement).
	PolarityNoise float64
	// SentenceOpts tunes the review grammar.
	SentenceOpts corpus.Options
}

// DefaultConfig matches the paper's filtered Yelp slice.
func DefaultConfig() Config {
	return Config{
		Entities:      280,
		MeanReviews:   25,
		Seed:          2021,
		City:          "Montreal",
		Cuisine:       "Italian",
		PolarityNoise: 0.1,
	}
}

// FastConfig is the CI-scale world.
func FastConfig() Config {
	cfg := DefaultConfig()
	cfg.Entities = 36
	cfg.MeanReviews = 16
	return cfg
}

// Attribute names exposed to the SIM baseline.
const (
	AttrNoiseLevel    = "NoiseLevel"
	AttrAmbience      = "Ambience"
	AttrGoodForGroups = "GoodForGroups"
	AttrPriceRange    = "RestaurantsPriceRange"
	AttrDelivery      = "RestaurantsDelivery"
	AttrOutdoor       = "OutdoorSeating"
)

// AttributeValues lists each queryable attribute's value set, mirroring the
// Yelp interface the SIM baseline sweeps (§6.2).
func AttributeValues() map[string][]string {
	return map[string][]string{
		AttrNoiseLevel:    {"quiet", "average", "loud"},
		AttrAmbience:      {"romantic", "casual", "classy"},
		AttrGoodForGroups: {"true", "false"},
		AttrPriceRange:    {"1", "2", "3", "4"},
		AttrDelivery:      {"true", "false"},
		AttrOutdoor:       {"true", "false"},
	}
}

// Generate builds a world from the restaurants domain.
func Generate(cfg Config) *World {
	return GenerateDomain(cfg, lexicon.Restaurants())
}

// GenerateDomain builds a world over an arbitrary domain lexicon.
func GenerateDomain(cfg Config, domain *lexicon.Domain) *World {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := corpus.NewGenerator(domain, cfg.Seed+1, cfg.SentenceOpts)
	w := &World{Domain: domain}
	nf := len(domain.Features)
	for i := 0; i < cfg.Entities; i++ {
		e := &Entity{
			ID:      fmt.Sprintf("e%03d", i),
			Name:    entityName(rng, domain, i),
			City:    cfg.City,
			Cuisine: cfg.Cuisine,
			Quality: make([]float64, nf),
			Attrs:   map[string]string{},
		}
		// Latent quality: a per-entity base level plus per-feature jitter,
		// so some places are broadly good and others mixed.
		base := 0.25 + 0.5*rng.Float64()
		for f := 0; f < nf; f++ {
			q := base + rng.NormFloat64()*0.25
			e.Quality[f] = clamp01(q)
		}
		e.Stars = starsFrom(rng, e.Quality)
		fillAttrs(rng, e, nf)

		// Popularity tracks quality, as on real review platforms: good
		// places accumulate more reviews — which is what makes Eq. 1's
		// log(|Re|+1) weight informative.
		meanQ := 0.0
		for _, q := range e.Quality {
			meanQ += q
		}
		meanQ /= float64(nf)
		nReviews := poissonish(rng, int(float64(cfg.MeanReviews)*(0.4+1.2*meanQ)+0.5))
		for r := 0; r < nReviews; r++ {
			e.Reviews = append(e.Reviews, makeReview(rng, gen, e, cfg.PolarityNoise, nf))
		}
		w.Entities = append(w.Entities, e)
	}
	return w
}

func entityName(rng *rand.Rand, domain *lexicon.Domain, i int) string {
	base := domain.Entities[i%len(domain.Entities)]
	if i < len(domain.Entities) {
		return base
	}
	return fmt.Sprintf("%s %d", base, i/len(domain.Entities)+1)
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

// starsFrom collapses the quality vector to a noisy 1–5 rating — the coarse
// aggregate of §1 that hides per-aspect detail.
func starsFrom(rng *rand.Rand, q []float64) float64 {
	var mean float64
	for _, v := range q {
		mean += v
	}
	mean /= float64(len(q))
	stars := 1 + 4*mean + rng.NormFloat64()*0.3
	return math.Round(math.Max(1, math.Min(5, stars))*2) / 2
}

// Feature ids the attributes quantize (restaurant domain layout).
const (
	featRomantic = 3
	featPrices   = 7
	featView     = 8
	featQuiet    = 9
	featPortions = 11
	featDecor    = 12
	featDelivery = 13
	featSeating  = 17
)

func fillAttrs(rng *rand.Rand, e *Entity, nf int) {
	get := func(f int) float64 {
		if f < nf {
			return e.Quality[f]
		}
		return rng.Float64()
	}
	// Attributes observe the latent quality through noisy thresholds, so
	// SIM correlates with — but never equals — the subjective truth.
	noisy := func(q float64) float64 { return clamp01(q + rng.NormFloat64()*0.15) }

	switch q := noisy(get(featQuiet)); {
	case q > 0.62:
		e.Attrs[AttrNoiseLevel] = "quiet"
	case q > 0.35:
		e.Attrs[AttrNoiseLevel] = "average"
	default:
		e.Attrs[AttrNoiseLevel] = "loud"
	}
	switch q := noisy((get(featRomantic) + get(featDecor)) / 2); {
	case q > 0.6:
		e.Attrs[AttrAmbience] = "romantic"
	case q > 0.4:
		e.Attrs[AttrAmbience] = "classy"
	default:
		e.Attrs[AttrAmbience] = "casual"
	}
	e.Attrs[AttrGoodForGroups] = boolAttr(noisy((get(featSeating) + get(featPortions)) / 2))
	priceQ := noisy(get(featPrices))
	e.Attrs[AttrPriceRange] = fmt.Sprintf("%d", 1+int(3*(1-priceQ)+0.5))
	e.Attrs[AttrDelivery] = boolAttr(noisy(get(featDelivery)))
	e.Attrs[AttrOutdoor] = boolAttr(noisy(get(featView)))
}

func boolAttr(q float64) string {
	if q > 0.5 {
		return "true"
	}
	return "false"
}

// poissonish samples a review count with the given mean (>=1).
func poissonish(rng *rand.Rand, mean int) int {
	if mean <= 1 {
		return 1
	}
	n := int(float64(mean) * (0.5 + rng.Float64()))
	if n < 1 {
		n = 1
	}
	return n
}

// makeReview renders 1–3 sentences mentioning 1–4 features, with polarity
// sampled from the entity's latent quality (plus reviewer noise).
func makeReview(rng *rand.Rand, gen *corpus.Generator, e *Entity, polarityNoise float64, nf int) *Review {
	nMentions := 2 + rng.Intn(4)
	perm := rng.Perm(nf)
	var specs []corpus.MentionSpec
	for _, f := range perm[:nMentions] {
		positive := rng.Float64() < e.Quality[f]
		if rng.Float64() < polarityNoise {
			positive = !positive
		}
		specs = append(specs, corpus.MentionSpec{FeatureID: f, Positive: positive})
	}
	var sentences []corpus.Sentence
	for start := 0; start < len(specs); {
		take := 1 + rng.Intn(2)
		if start+take > len(specs) {
			take = len(specs) - start
		}
		sentences = append(sentences, gen.SentenceFor(specs[start:start+take]))
		start += take
	}
	texts := make([]string, len(sentences))
	for i, s := range sentences {
		texts[i] = s.Text()
	}
	return &Review{
		EntityID:  e.ID,
		Sentences: sentences,
		Text:      strings.Join(texts, " "),
	}
}
