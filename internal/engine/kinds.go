package engine

import (
	"context"
	"fmt"
	"strings"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/experiments"
	"nwdec/internal/nwerr"
	"nwdec/internal/sweep"
)

// computeKind dispatches a validated request to its library entry point.
// Each branch produces the complete Response for its kind; Do owns
// caching, cloning and classification around it.
func computeKind(ctx context.Context, req Request) (*Response, error) {
	switch req.Kind {
	case KindDesign:
		return computeDesign(ctx, req)
	case KindOptimize:
		return computeOptimize(ctx, req)
	case KindMonteCarlo:
		return computeMonteCarlo(ctx, req)
	case KindExperiment:
		return computeExperiment(ctx, req)
	case KindSweep:
		return computeSweep(ctx, req)
	case KindCodes:
		return computeCodes(ctx, req)
	}
	// Validate rejects unknown kinds before admission; this is a guard
	// against a kind added without a branch.
	return nil, fmt.Errorf("engine: no compute path for kind %q", string(req.Kind))
}

func computeDesign(_ context.Context, req Request) (*Response, error) {
	d, err := core.NewDesign(req.Config)
	if err != nil {
		return nil, err
	}
	return &Response{Dataset: d.Dataset()}, nil
}

func computeOptimize(ctx context.Context, req Request) (*Response, error) {
	types := req.Types
	if len(types) == 0 {
		types = code.AllTypes()
	}
	lengths := req.Lengths
	if len(lengths) == 0 {
		lengths = []int{4, 6, 8, 10, 12}
	}
	d, err := core.Optimize(ctx, req.Config, types, lengths, req.Objective, req.Workers)
	if err != nil {
		return nil, err
	}
	return &Response{Dataset: d.Dataset()}, nil
}

func computeMonteCarlo(ctx context.Context, req Request) (*Response, error) {
	d, err := core.NewDesign(req.Config)
	if err != nil {
		return nil, err
	}
	y, err := d.MonteCarloYieldWorkers(ctx, req.Trials, req.Seed, req.Workers)
	if err != nil {
		return nil, err
	}
	cfg := d.Config
	ds := dataset.New("montecarlo_yield",
		fmt.Sprintf("Monte-Carlo cave yield (%s, M=%d, %d trials)", cfg.CodeType, cfg.CodeLength, req.Trials),
		dataset.Col("code", dataset.String),
		dataset.Col("M", dataset.Int),
		dataset.Col("trials", dataset.Int),
		dataset.Col("analyticYield", dataset.Float),
		dataset.Col("empiricalYield", dataset.Float),
	)
	ds.AddRow(cfg.CodeType.String(), cfg.CodeLength, req.Trials, d.Crossbar.Yield, y)
	ds.Meta.Seed = req.Seed
	ds.Meta.Trials = req.Trials
	ds.Meta.ConfigHash = req.Config.Fingerprint()
	return &Response{Dataset: ds}, nil
}

func computeExperiment(ctx context.Context, req Request) (*Response, error) {
	r := &experiments.Runner{
		Cfg:      req.Config,
		MCTrials: req.Trials,
		Seed:     req.Seed,
		Workers:  req.Workers,
	}
	ds, err := r.Run(ctx, req.Experiment)
	if err != nil {
		return nil, err
	}
	return &Response{Dataset: ds}, nil
}

func computeSweep(ctx context.Context, req Request) (*Response, error) {
	var (
		rows []sweep.Row
		err  error
	)
	if req.Hi == 0 {
		rows, err = sweep.RunWorkers(ctx, req.Config, req.Grid, req.Workers)
	} else {
		points := req.Grid.Points(req.Config)
		if req.Hi > len(points) {
			return nil, nwerr.Invalidf("engine: sweep range [%d,%d) exceeds the grid's %d points", req.Lo, req.Hi, len(points))
		}
		rows, err = sweep.EvalPoints(ctx, req.Workers, points[req.Lo:req.Hi])
	}
	if err != nil {
		return nil, err
	}
	return &Response{Dataset: sweep.Dataset(rows)}, nil
}

func computeCodes(_ context.Context, req Request) (*Response, error) {
	cfg := req.Config.WithDefaults()
	gen, err := code.Cached(cfg.CodeType, cfg.Base, cfg.CodeLength)
	if err != nil {
		return nil, nwerr.Invalid(err)
	}
	n := req.Count
	if n <= 0 {
		n = gen.SpaceSize()
		if n > 64 {
			n = 64
		}
	}
	words, err := code.CyclicSequence(gen, n)
	if err != nil {
		return nil, err
	}
	return &Response{Dataset: WordsDataset(cfg.CodeType, gen, words)}, nil
}

// WordsDataset packages a code-word listing with its transition
// statistics; its text rendering is the annotated sequence. It is
// exported because the dataset is the nwcodes output contract (byte-pinned
// by the CLI golden tests) and the engine's KindCodes result.
func WordsDataset(tp code.Type, gen code.Generator, words []code.Word) *dataset.Dataset {
	ds := dataset.New("nwcodes",
		fmt.Sprintf("%s word sequence (base=%d, M=%d)", tp, gen.Base(), gen.Length()),
		dataset.Col("index", dataset.Int),
		dataset.Col("word", dataset.String),
		dataset.Col("digitChanges", dataset.Int),
	)
	for i, w := range words {
		changes := 0
		if i > 0 {
			changes = w.Hamming(words[i-1])
		}
		ds.AddRow(i, w.String(), changes)
	}
	st := code.Stats(words)
	ds.Note("transitions: total=%d  per-step min/max=%d/%d  per-digit=%v (max %d)",
		st.TotalTransitions, st.MinPerStep, st.MaxPerStep, st.PerDigit, st.MaxPerDigit)
	ds.SetText(func() string { return renderWords(tp, gen, words, ds.Notes) })
	return ds
}

// renderWords is the historical nwcodes text listing, closed by the
// dataset's notes (the transition statistics).
func renderWords(tp code.Type, gen code.Generator, words []code.Word, notes []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  base=%d  M=%d  Ω=%d  (showing %d words)\n",
		tp, gen.Base(), gen.Length(), gen.SpaceSize(), len(words))
	if tp.Reflected() {
		sb.WriteString("words are reflected: second half is the (n-1)-complement of the first\n")
	}
	for i, w := range words {
		if i == 0 {
			fmt.Fprintf(&sb, "%3d  %s\n", i, w)
			continue
		}
		fmt.Fprintf(&sb, "%3d  %s  (%d digit changes)\n", i, w, w.Hamming(words[i-1]))
	}
	for _, n := range notes {
		sb.WriteString("\n" + n)
	}
	sb.WriteString("\n")
	return sb.String()
}

// ExperimentNames lists the experiment registry's names in presentation
// order, for CLIs and the HTTP facade to expand "all" and render help.
func ExperimentNames() []string {
	return (&experiments.Runner{}).Names()
}

// ExperimentKnown reports whether name resolves to a registry experiment,
// including aliases and case normalization. The HTTP facade uses it to
// distinguish an unknown resource (404) from a failed computation (500).
func ExperimentKnown(name string) bool {
	return (&experiments.Runner{}).Known(name)
}
