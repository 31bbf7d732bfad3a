package experiments

import (
	"io"

	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/tagger"
)

// Epsilons is the Table 4 perturbation sweep.
var Epsilons = []float64{0.1, 0.2, 0.5, 1.0, 2.0}

// Table4Row is one model's F1 (×100) on S1–S4.
type Table4Row struct {
	Model string
	F1    [4]float64
}

// Table4Result is the full tagger evaluation of §6.3.
type Table4Result struct {
	Datasets []string
	Rows     []Table4Row
}

// table4TaggerCfg returns the per-scale training recipe (paper: 15 epochs).
func table4TaggerCfg(scale Scale) tagger.Config {
	cfg := tagger.DefaultConfig()
	if scale == Paper {
		cfg.Epochs = 15
	} else {
		cfg.Epochs = 5
	}
	cfg.Alpha = 0.5 // fixed across all runs, as in §6.3
	return cfg
}

// Table4 reproduces the aspect/opinion tagger evaluation: OpineDB (BERT +
// per-token classifier), OpineDB + DK (domain post-trained encoder), and the
// SACCS adversarial tagger at ε ∈ {0.1, 0.2, 0.5, 1.0, 2.0}, on S1–S4, with
// exact-match chunk F1 (×100).
func Table4(scale Scale, w io.Writer) Table4Result {
	res := Table4Result{}
	all := datasets.All(scale)
	opts := core.EncoderOptsFor(scale)

	rows := map[string]*Table4Row{}
	order := []string{"OpineDB", "OpineDB + DK"}
	rows["OpineDB"] = &Table4Row{Model: "OpineDB"}
	rows["OpineDB + DK"] = &Table4Row{Model: "OpineDB + DK"}
	for _, eps := range Epsilons {
		name := advName(eps)
		order = append(order, name)
		rows[name] = &Table4Row{Model: name}
	}

	for di, d := range all {
		res.Datasets = append(res.Datasets, d.Name)
		// Plain encoder (Wikipedia-only BERT) and domain-adapted encoder.
		plain := core.BuildEncoder(opts, d.Domain, nil)
		dk := core.BuildEncoder(opts, d.Domain, core.Tokens(d.Train))

		base := table4TaggerCfg(scale)

		// The linear head is cheap to train; give it extra epochs so the
		// baseline is as strong as its architecture allows.
		headCfg := base
		headCfg.Epochs = base.Epochs + 3
		o := tagger.NewOpineDB(plain, headCfg)
		o.Train(d.Train)
		rows["OpineDB"].F1[di] = 100 * o.Evaluate(d.Test).F1

		odk := tagger.NewOpineDB(dk, headCfg)
		odk.Train(d.Train)
		rows["OpineDB + DK"].F1[di] = 100 * odk.Evaluate(d.Test).F1

		for _, eps := range Epsilons {
			cfg := base
			cfg.Adversarial = true
			cfg.Epsilon = eps
			m := tagger.New(dk, cfg)
			m.Train(d.Train)
			rows[advName(eps)].F1[di] = 100 * m.Evaluate(d.Test).F1
		}
	}

	for _, name := range order {
		res.Rows = append(res.Rows, *rows[name])
	}
	res.print(w)
	return res
}

func advName(eps float64) string {
	switch eps {
	case 0.1:
		return "Adversarial (eps=0.1)"
	case 0.2:
		return "Adversarial (eps=0.2)"
	case 0.5:
		return "Adversarial (eps=0.5)"
	case 1.0:
		return "Adversarial (eps=1.0)"
	case 2.0:
		return "Adversarial (eps=2.0)"
	}
	return "Adversarial"
}

func (r Table4Result) print(w io.Writer) {
	fprintf(w, "Table 4: Evaluation of aspect/opinion tagger (F1 x100)\n")
	fprintf(w, "%-24s", "Models")
	for _, d := range r.Datasets {
		fprintf(w, " %8s", d)
	}
	fprintf(w, "\n")
	for _, row := range r.Rows {
		fprintf(w, "%-24s", row.Model)
		for i := range r.Datasets {
			fprintf(w, " %8.2f", row.F1[i])
		}
		fprintf(w, "\n")
	}
}
