package experiments

import (
	"context"
	"io"
	"math/rand"

	"saccs/internal/core"
	"saccs/internal/crowd"
	"saccs/internal/datasets"
	"saccs/internal/index"
	"saccs/internal/ir"
	"saccs/internal/metrics"
	"saccs/internal/nn"
	"saccs/internal/search"
	"saccs/internal/sim"
	"saccs/internal/simbaseline"
	"saccs/internal/tokenize"
	"saccs/internal/yelp"
)

// Difficulty labels the three query sets of §6.2.
type Difficulty int

// Short (1–2 tags), Medium (3–4), Long (5–6).
const (
	Short Difficulty = iota
	Medium
	Long
)

func (d Difficulty) String() string {
	switch d {
	case Short:
		return "Short"
	case Medium:
		return "Medium"
	}
	return "Long"
}

// tagRange returns the tag-count interval for a difficulty.
func (d Difficulty) tagRange() (int, int) {
	switch d {
	case Short:
		return 1, 2
	case Medium:
		return 3, 4
	}
	return 5, 6
}

// Query is one subjective query: a tag combination standing in for a user
// utterance ("I am looking for a restaurant that delivers a quick service
// with clean plates").
type Query struct {
	Tags []string
}

// MakeQueries samples n queries per difficulty by uniform random sampling of
// the canonical tags, deterministically.
func MakeQueries(tags []string, n int, seed int64) map[Difficulty][]Query {
	rng := rand.New(rand.NewSource(seed))
	out := map[Difficulty][]Query{}
	for _, d := range []Difficulty{Short, Medium, Long} {
		lo, hi := d.tagRange()
		for i := 0; i < n; i++ {
			k := lo + rng.Intn(hi-lo+1)
			perm := rng.Perm(len(tags))
			q := Query{}
			for _, idx := range perm[:k] {
				q.Tags = append(q.Tags, tags[idx])
			}
			out[d] = append(out[d], q)
		}
	}
	return out
}

// Table2Row is one system's mean NDCG per difficulty.
type Table2Row struct {
	System              string
	Short, Medium, Long float64
}

// Get returns the row's score for a difficulty.
func (r Table2Row) Get(d Difficulty) float64 {
	switch d {
	case Short:
		return r.Short
	case Medium:
		return r.Medium
	}
	return r.Long
}

// Table2Result is the §6.2 comparison.
type Table2Result struct {
	Rows []Table2Row
}

// Row returns the named system's row.
func (r Table2Result) Row(system string) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.System == system {
			return row, true
		}
	}
	return Table2Row{}, false
}

// Table2Options tunes the harness.
type Table2Options struct {
	// QueriesPerSet is 100 in the paper.
	QueriesPerSet int
	// TopK is the ranked-list cutoff for NDCG.
	TopK int
	// Seed drives query sampling.
	Seed int64
	// IndexSizes are the SACCS index growth stages (paper: 6, 12, 18).
	IndexSizes []int
}

func defaultTable2Options(scale Scale) Table2Options {
	n := 30
	if scale == Paper {
		n = 100
	}
	return Table2Options{QueriesPerSet: n, TopK: 10, Seed: 61, IndexSizes: []int{6, 12, 18}}
}

// Table2Env bundles the expensive shared state (world, ground truth,
// extracted review tags) so ablation benches can reuse it.
type Table2Env struct {
	World *yelp.World
	Truth *crowd.Truth
	// Reviews are the world's review tags, extracted once by
	// core.EntityReviews over the review texts — the build input the saccs
	// facade's IndexEntities produces for the same world.
	Reviews []index.EntityReviews
	Queries map[Difficulty][]Query
	Opts    Table2Options
}

// BuildTable2Env generates the world, simulates the crowd ground truth,
// trains the extraction pipeline (MiniBERT + adversarial tagger + tree
// pairing), and extracts review tags for indexing.
func BuildTable2Env(scale Scale, w io.Writer) *Table2Env {
	worldCfg := yelp.FastConfig()
	if scale == Paper {
		worldCfg = yelp.DefaultConfig()
	}
	fprintf(w, "generating world (%d entities)...\n", worldCfg.Entities)
	world := yelp.Generate(worldCfg)
	fprintf(w, "world: %d entities, %d reviews\n", len(world.Entities), world.ReviewCount())

	fprintf(w, "simulating crowd ground truth...\n")
	truth := crowd.GroundTruth(world, crowd.DefaultConfig())

	// The served pipeline, exactly as saccs.New trains it by default, at the
	// float64 reference arithmetic the table is defined against.
	fprintf(w, "training extractor (MLM + adversarial tagger)...\n")
	tg := core.TrainTagger(world.Domain, datasets.S1(scale), scale, true, 0.2, nn.Float64, nil)
	ex := &core.Extractor{Tagger: tg, Pairer: core.ServedPairer(world.Domain)}
	fprintf(w, "extracting subjective tags from reviews...\n")
	// context.Background is never cancelled, so the error path is dead.
	reviews, _ := core.EntityReviews(context.Background(), world.IDs(), world.Reviews(),
		func(r *yelp.Review) []string { return ex.ExtractTags(r.Text) })

	opts := defaultTable2Options(scale)
	return &Table2Env{
		World:   world,
		Truth:   truth,
		Reviews: reviews,
		Queries: MakeQueries(featureTags(world), opts.QueriesPerSet, opts.Seed),
		Opts:    opts,
	}
}

// featureTags lists the domain's feature tags in lexicon order — the order
// query sampling and the growth shuffle are seeded against.
func featureTags(w *yelp.World) []string {
	tags := make([]string, len(w.Domain.Features))
	for i, f := range w.Domain.Features {
		tags[i] = f.Name
	}
	return tags
}

// EvalIR scores the BM25 + query-expansion baseline.
func (e *Table2Env) EvalIR() Table2Row {
	var docs []ir.Doc
	for _, en := range e.World.Entities {
		var toks []string
		for _, r := range en.Reviews {
			toks = append(toks, tokenize.Words(r.Text)...)
		}
		docs = append(docs, ir.Doc{ID: en.ID, Tokens: toks})
	}
	engine := ir.NewBM25(docs)
	row := Table2Row{System: "IR"}
	e.forEachSet(&row, func(q Query, gains map[string]float64) float64 {
		ranked := engine.Search(ir.ExpandQuery(q.Tags), e.Opts.TopK)
		ids := make([]string, len(ranked))
		for i, s := range ranked {
			ids[i] = s.ID
		}
		return metrics.NDCG(gains, ids, e.Opts.TopK)
	})
	return row
}

// EvalSIM scores the attribute-sweep baseline with 1 or 2 attributes.
func (e *Table2Env) EvalSIM(attrs int) Table2Row {
	name := "SIM - 1 att"
	if attrs == 2 {
		name = "SIM - 2 atts"
	}
	row := Table2Row{System: name}
	e.forEachSet(&row, func(q Query, gains map[string]float64) float64 {
		return simbaseline.Best(e.World, gains, e.Opts.TopK, attrs).NDCG
	})
	return row
}

// Index builds the SACCS index over the first size canonical tags (the
// §6.2 adaptivity sweep: 6, 12, 18 tags) in a fixed shuffled growth order,
// at the paper's θ_index, from the extracted review tags.
func (e *Table2Env) Index(size int) *index.Index {
	canon := featureTags(e.World)
	rng := rand.New(rand.NewSource(17))
	rng.Shuffle(len(canon), func(i, j int) { canon[i], canon[j] = canon[j], canon[i] })
	ix := index.New(sim.NewConceptual(), core.ThetaIndex)
	ix.Build(canon[:min(size, len(canon))], e.Reviews)
	return ix
}

// EvalSACCS scores SACCS with the first size canonical tags indexed. A Table
// 2 query carries tags and no objective slots, so Algorithm 1 filters and
// ranks every entity of the world.
func (e *Table2Env) EvalSACCS(size int) Table2Row {
	snap := e.Index(size).Current()
	rk := search.Ranker{Snap: snap, ThetaFilter: core.ThetaFilter, Agg: search.MeanAgg}
	cands := search.NewCandidates(snap, e.World.IDs())

	row := Table2Row{System: saccsName(min(size, len(e.World.Domain.Features)))}
	e.forEachSet(&row, func(q Query, gains map[string]float64) float64 {
		// context.Background is never cancelled and cands is resolved
		// against snap, so the error path is dead.
		ranked, _ := rk.TopK(context.Background(), nil, cands, q.Tags, e.Opts.TopK)
		ids := make([]string, len(ranked))
		for i, s := range ranked {
			ids[i] = s.EntityID
		}
		return metrics.NDCG(gains, ids, e.Opts.TopK)
	})
	return row
}

func saccsName(size int) string {
	switch size {
	case 6:
		return "SACCS - 6 tags"
	case 12:
		return "SACCS - 12 tags"
	case 18:
		return "SACCS - 18 tags"
	}
	return "SACCS"
}

// forEachSet fills a row by averaging the scorer over each difficulty set.
func (e *Table2Env) forEachSet(row *Table2Row, score func(q Query, gains map[string]float64) float64) {
	ids := e.World.IDs()
	for _, d := range []Difficulty{Short, Medium, Long} {
		var vals []float64
		for _, q := range e.Queries[d] {
			gains := e.Truth.Gains(q.Tags, ids)
			vals = append(vals, score(q, gains))
		}
		mean := metrics.Mean(vals)
		switch d {
		case Short:
			row.Short = mean
		case Medium:
			row.Medium = mean
		default:
			row.Long = mean
		}
	}
}

// Table2 runs the full §6.2 comparison and prints the paper-shaped table.
func Table2(scale Scale, w io.Writer) Table2Result {
	env := BuildTable2Env(scale, w)
	return Table2From(env, w)
}

// Table2From evaluates all systems over a prebuilt environment.
func Table2From(env *Table2Env, w io.Writer) Table2Result {
	res := Table2Result{}
	res.Rows = append(res.Rows, env.EvalIR())
	res.Rows = append(res.Rows, env.EvalSIM(1))
	res.Rows = append(res.Rows, env.EvalSIM(2))
	for _, size := range env.Opts.IndexSizes {
		res.Rows = append(res.Rows, env.EvalSACCS(size))
	}
	res.print(w)
	return res
}

func (r Table2Result) print(w io.Writer) {
	fprintf(w, "Table 2: Comparing SACCS to baselines (NDCG)\n")
	fprintf(w, "%-16s %7s %7s %7s\n", "System", "Short", "Medium", "Long")
	for _, row := range r.Rows {
		fprintf(w, "%-16s %7.3f %7.3f %7.3f\n", row.System, row.Short, row.Medium, row.Long)
	}
}
