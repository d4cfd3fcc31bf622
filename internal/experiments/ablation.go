package experiments

import (
	"context"
	"fmt"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/geometry"
	"nwdec/internal/mspt"
	"nwdec/internal/par"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
	"nwdec/internal/textplot"
	"nwdec/internal/yield"
)

// ArrangementPoint compares one arrangement of the same code space.
type ArrangementPoint struct {
	Name  string
	Phi   int
	NuSum int
	MaxNu int
	Yield float64
}

// AblationArrangementWorkers isolates the paper's core claim (Propositions
// 4-5): over the *same* binary reflected code space (M=10, N=20), it
// compares the counting (tree) order, seeded random orders, the Gray order
// and the balanced Gray order. Gray arrangements must dominate every random
// order in both Φ and ‖Σ‖₁. It runs on the par pool with the given worker
// count (<= 0 means GOMAXPROCS) and stops when ctx is cancelled; the random
// orders are drawn serially from their own seeds before the evaluations fan
// out, so the output is bit-identical at every worker count.
func AblationArrangementWorkers(ctx context.Context, seeds []uint64, workers int) ([]ArrangementPoint, error) {
	const m, n = 10, 20
	q, err := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	if err != nil {
		return nil, err
	}
	doses, err := mspt.DoseLevels(q, 0)
	if err != nil {
		return nil, err
	}
	analyzer, err := yield.NewAnalyzer(yield.DefaultSigmaT, q.Margin())
	if err != nil {
		return nil, err
	}
	tc, err := code.NewTree(2, m)
	if err != nil {
		return nil, err
	}
	full, err := tc.Sequence(tc.SpaceSize())
	if err != nil {
		return nil, err
	}

	// The arrangements under comparison, in presentation order.
	type arrangement struct {
		name  string
		words []code.Word
	}
	units := []arrangement{{name: "counting (TC)", words: full[:n]}}
	for _, seed := range seeds {
		rng := stats.NewRNG(seed)
		perm := rng.Perm(len(full))
		words := make([]code.Word, n)
		for i := range words {
			words[i] = full[perm[i]]
		}
		units = append(units, arrangement{name: fmt.Sprintf("random #%d", seed), words: words})
	}
	for _, fam := range []code.Type{code.TypeGray, code.TypeBalancedGray} {
		g, err := code.Cached(fam, 2, m)
		if err != nil {
			return nil, err
		}
		words, err := g.Sequence(n)
		if err != nil {
			return nil, err
		}
		units = append(units, arrangement{name: fam.String(), words: words})
	}

	return par.Map(ctx, workers, units,
		func(_ context.Context, _ int, u arrangement) (ArrangementPoint, error) {
			plan, err := mspt.NewPlan(u.words, 2, doses)
			if err != nil {
				return ArrangementPoint{}, err
			}
			hc := analyzer.AnalyzeHalfCave(plan, geometry.ContactPlan{Groups: 1})
			return ArrangementPoint{
				Name:  u.name,
				Phi:   plan.Phi(),
				NuSum: plan.NuSum(),
				MaxNu: plan.MaxNu(),
				Yield: hc.Yield,
			}, nil
		})
}

// AblationArrangementDataset packages the arrangement comparison; its text
// rendering is RenderAblationArrangement.
func AblationArrangementDataset(points []ArrangementPoint) *dataset.Dataset {
	ds := dataset.New("arrangement",
		"Ablation — arrangements of the same binary code space (M=10, N=20)",
		dataset.Col("arrangement", dataset.String),
		dataset.ColUnit("phi", "steps", dataset.Int),
		dataset.ColUnit("nuSum", "σ²", dataset.Int),
		dataset.Col("maxNu", dataset.Int),
		dataset.Col("yield", dataset.Float),
	)
	for _, p := range points {
		ds.AddRow(p.Name, p.Phi, p.NuSum, p.MaxNu, p.Yield)
	}
	ds.Note("Gray arrangements minimize both cost functions over every sampled order " +
		"(Propositions 4-5); balance additionally lowers the worst region (max ν).")
	ds.SetText(func() string { return RenderAblationArrangement(points) })
	return ds
}

// RenderAblationArrangement renders the arrangement comparison.
func RenderAblationArrangement(points []ArrangementPoint) string {
	tb := textplot.NewTable(
		"Ablation — arrangements of the same binary code space (M=10, N=20)",
		"arrangement", "Φ", "‖Σ‖₁ [σ²]", "max ν", "yield")
	for _, p := range points {
		tb.AddRowf(p.Name, p.Phi, p.NuSum, p.MaxNu, fmt.Sprintf("%.1f%%", 100*p.Yield))
	}
	return tb.String() +
		"\nGray arrangements minimize both cost functions over every sampled order\n" +
		"(Propositions 4-5); balance additionally lowers the worst region (max ν).\n"
}

// MarginPoint is one margin-factor evaluation.
type MarginPoint struct {
	Factor  float64
	YieldTC float64
	YieldBG float64
}

// AblationMarginWorkers sweeps the sensing-margin factor — the one
// calibration constant of the yield model — and shows the BGC advantage over
// TC is robust across it. It runs on the par pool with the given worker
// count (<= 0 means GOMAXPROCS) and stops when ctx is cancelled; the output
// is bit-identical at every worker count.
func AblationMarginWorkers(ctx context.Context, factors []float64, workers int) ([]MarginPoint, error) {
	return par.Map(ctx, workers, factors,
		func(_ context.Context, _ int, f float64) (MarginPoint, error) {
			row := MarginPoint{Factor: f}
			for _, tp := range []code.Type{code.TypeTree, code.TypeBalancedGray} {
				d, err := core.NewDesign(core.Config{CodeType: tp, CodeLength: 10, MarginFactor: f})
				if err != nil {
					return MarginPoint{}, err
				}
				if tp == code.TypeTree {
					row.YieldTC = d.Yield()
				} else {
					row.YieldBG = d.Yield()
				}
			}
			return row, nil
		})
}

// AblationMarginDataset packages the margin sweep; its text rendering is
// RenderAblationMargin.
func AblationMarginDataset(points []MarginPoint) *dataset.Dataset {
	ds := dataset.New("margin",
		"Ablation — sensing-margin factor (fraction of half the level spacing)",
		dataset.Col("factor", dataset.Float),
		dataset.Col("yieldTC", dataset.Float),
		dataset.Col("yieldBGC", dataset.Float),
		dataset.Col("bgcGain", dataset.Float),
	)
	for _, p := range points {
		gain := 0.0
		if p.YieldTC > 0 {
			gain = (p.YieldBG - p.YieldTC) / p.YieldTC
		}
		ds.AddRow(p.Factor, p.YieldTC, p.YieldBG, gain)
	}
	ds.SetText(func() string { return RenderAblationMargin(points) })
	return ds
}

// RenderAblationMargin renders the margin sweep.
func RenderAblationMargin(points []MarginPoint) string {
	tb := textplot.NewTable(
		"Ablation — sensing-margin factor (fraction of half the level spacing)",
		"factor", "TC yield", "BGC yield", "BGC gain")
	for _, p := range points {
		gain := 0.0
		if p.YieldTC > 0 {
			gain = (p.YieldBG - p.YieldTC) / p.YieldTC
		}
		tb.AddRowf(p.Factor,
			fmt.Sprintf("%.1f%%", 100*p.YieldTC),
			fmt.Sprintf("%.1f%%", 100*p.YieldBG),
			fmt.Sprintf("%+.0f%%", 100*gain))
	}
	return tb.String()
}

// ModelInvariance verifies that the decoder's fabrication-side metrics
// (Φ, ν, ‖Σ‖₁) are identical under the physical threshold model and the
// paper-calibrated table model: they depend only on *where* doses land, not
// on dose magnitudes, so the choice of f in Proposition 1 cannot change the
// optimization result.
type ModelInvariance struct {
	CodeType      code.Type
	PhiPhysical   int
	PhiTable      int
	NuSumPhysical int
	NuSumTable    int
	Invariant     bool
}

// AblationModelWorkers evaluates the model-invariance check for each
// tree-family code on a ternary decoder (where dose magnitudes differ most
// between models). It runs on the par pool with the given worker count (<= 0
// means GOMAXPROCS) and stops when ctx is cancelled; the output is
// bit-identical at every worker count.
func AblationModelWorkers(ctx context.Context, workers int) ([]ModelInvariance, error) {
	const m, n = 6, 10
	types := []code.Type{code.TypeTree, code.TypeGray, code.TypeBalancedGray}
	return par.Map(ctx, workers, types,
		func(_ context.Context, _ int, tp code.Type) (ModelInvariance, error) {
			g, err := code.Cached(tp, 3, m)
			if err != nil {
				return ModelInvariance{}, err
			}
			var phi [2]int
			var nuSum [2]int
			for mi, model := range []physics.VTModel{physics.DefaultPhysicalModel(), physics.PaperExampleTable()} {
				q, err := physics.NewQuantizer(model, 3, 0, 0.6)
				if err != nil {
					return ModelInvariance{}, err
				}
				plan, err := mspt.NewPlanFromGenerator(g, n, q, 0)
				if err != nil {
					return ModelInvariance{}, err
				}
				phi[mi] = plan.Phi()
				nuSum[mi] = plan.NuSum()
			}
			return ModelInvariance{
				CodeType:      tp,
				PhiPhysical:   phi[0],
				PhiTable:      phi[1],
				NuSumPhysical: nuSum[0],
				NuSumTable:    nuSum[1],
				Invariant:     phi[0] == phi[1] && nuSum[0] == nuSum[1],
			}, nil
		})
}

// AblationModelDataset packages the invariance check; its text rendering is
// RenderAblationModel.
func AblationModelDataset(rows []ModelInvariance) *dataset.Dataset {
	ds := dataset.New("model",
		"Ablation — V_T<->N_D model invariance (ternary, M=6, N=10)",
		dataset.Col("code", dataset.String),
		dataset.Col("phiPhysical", dataset.Int),
		dataset.Col("phiTable", dataset.Int),
		dataset.Col("nuSumPhysical", dataset.Int),
		dataset.Col("nuSumTable", dataset.Int),
		dataset.Col("invariant", dataset.Bool),
	)
	allInvariant := true
	for _, r := range rows {
		ds.AddRow(r.CodeType.String(), r.PhiPhysical, r.PhiTable,
			r.NuSumPhysical, r.NuSumTable, r.Invariant)
		if !r.Invariant {
			allInvariant = false
		}
	}
	if allInvariant {
		ds.Note("Φ and ‖Σ‖₁ are identical under the physical and the " +
			"table-calibrated V_T↔N_D models for every tree-family code.")
	} else {
		ds.Note("WARNING: fabrication metrics depend on the threshold model.")
	}
	ds.SetText(func() string { return RenderAblationModel(rows) })
	return ds
}

// RenderAblationModel renders the invariance table.
func RenderAblationModel(rows []ModelInvariance) string {
	tb := textplot.NewTable(
		"Ablation — V_T<->N_D model invariance (ternary, M=6, N=10)",
		"code", "Φ phys", "Φ table", "‖Σ‖₁ phys", "‖Σ‖₁ table", "invariant")
	for _, r := range rows {
		inv := "yes"
		if !r.Invariant {
			inv = "NO"
		}
		tb.AddRowf(r.CodeType.String(), r.PhiPhysical, r.PhiTable, r.NuSumPhysical, r.NuSumTable, inv)
	}
	return tb.String()
}

// BoundaryPoint is one boundary-loss evaluation.
type BoundaryPoint struct {
	LossWires int
	Yield     float64
	BitArea   float64
}

// AblationBoundaryWorkers sweeps the per-boundary wire loss — the second
// calibration constant — on a short-code design (TC M=6) where contact
// groups dominate. It runs on the par pool with the given worker count (<= 0
// means GOMAXPROCS) and stops when ctx is cancelled; the output is
// bit-identical at every worker count.
func AblationBoundaryWorkers(ctx context.Context, losses []int, workers int) ([]BoundaryPoint, error) {
	return par.Map(ctx, workers, losses,
		func(_ context.Context, _ int, loss int) (BoundaryPoint, error) {
			cfg := core.Config{CodeType: code.TypeTree, CodeLength: 6}
			cfg.Spec = geometry.DefaultCrossbarSpec()
			cfg.Spec.BoundaryLossWires = loss
			d, err := core.NewDesign(cfg)
			if err != nil {
				return BoundaryPoint{}, err
			}
			return BoundaryPoint{LossWires: loss, Yield: d.Yield(), BitArea: d.BitArea()}, nil
		})
}

// AblationBoundaryDataset packages the boundary-loss sweep; its text
// rendering is RenderAblationBoundary.
func AblationBoundaryDataset(points []BoundaryPoint) *dataset.Dataset {
	ds := dataset.New("boundary",
		"Ablation — wires lost per contact-group boundary (TC, M=6)",
		dataset.Col("lossPerBoundary", dataset.Int),
		dataset.Col("yield", dataset.Float),
		dataset.ColUnit("bitArea", "nm²", dataset.Float),
	)
	for _, p := range points {
		ds.AddRow(p.LossWires, p.Yield, p.BitArea)
	}
	ds.SetText(func() string { return RenderAblationBoundary(points) })
	return ds
}

// RenderAblationBoundary renders the boundary-loss sweep.
func RenderAblationBoundary(points []BoundaryPoint) string {
	tb := textplot.NewTable(
		"Ablation — wires lost per contact-group boundary (TC, M=6)",
		"loss/boundary", "yield", "bit area [nm²]")
	for _, p := range points {
		tb.AddRowf(p.LossWires, fmt.Sprintf("%.1f%%", 100*p.Yield), p.BitArea)
	}
	return tb.String()
}
