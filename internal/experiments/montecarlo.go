package experiments

import (
	"context"
	"fmt"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/crossbar"
	"nwdec/internal/dataset"
	"nwdec/internal/obs"
	"nwdec/internal/par"
	"nwdec/internal/stats"
	"nwdec/internal/textplot"
)

// MCPoint cross-validates the analytic yield model against the functional
// Monte-Carlo crossbar simulator for one design point.
type MCPoint struct {
	Type     code.Type
	Length   int
	Analytic float64 // analytic crosspoint yield Y²
	MC       float64 // Monte-Carlo usable crosspoint fraction
	Trials   int
}

// mcDesign is one design point of the validation experiment.
type mcDesign struct {
	tp code.Type
	m  int
}

// mcDesignPoints are the validation design points: one per arrangement
// family class.
var mcDesignPoints = []mcDesign{
	{code.TypeTree, 8},
	{code.TypeBalancedGray, 10},
	{code.TypeArrangedHot, 6},
}

// MonteCarloWorkers fabricates full crossbar memories with the functional
// simulator and compares their usable crosspoint fraction against the
// analytic Y² prediction. This experiment is the validation of the
// reproduction's statistical platform (it has no direct counterpart figure
// in the paper, which used the analytic model only). It runs on the par pool
// with the given worker count (<= 0 means GOMAXPROCS) and stops when ctx is
// cancelled; every (design point, trial) unit draws from its own jump
// substream of the seed and the per-point averages are reduced in trial
// order, so the output is bit-identical at every worker count.
func MonteCarloWorkers(ctx context.Context, cfg core.Config, trials int, seed uint64, workers int) ([]MCPoint, error) {
	if trials <= 0 {
		trials = 4
	}

	type bundle struct {
		d   *core.Design
		dec *crossbar.Decoder
	}
	bundles, err := par.Map(ctx, workers, mcDesignPoints,
		func(_ context.Context, _ int, pt mcDesign) (bundle, error) {
			c := cfg
			c.CodeType = pt.tp
			c.CodeLength = pt.m
			d, err := core.NewDesign(c)
			if err != nil {
				return bundle{}, err
			}
			dec, err := crossbar.NewDecoder(d.Plan, d.Quantizer)
			if err != nil {
				return bundle{}, err
			}
			return bundle{d: d, dec: dec}, nil
		})
	if err != nil {
		return nil, err
	}

	// One substream per (design point, trial) unit; units never share RNG
	// state, so execution order cannot influence the samples. The fan-out is
	// lazy: each scheduling chunk materializes only its own block of
	// substreams, bit-identical to the eager Streams expansion.
	units := len(mcDesignPoints) * trials
	sub := stats.NewRNG(seed).Substreams()
	// Trial and substream accounting: the counts are pure functions of the
	// experiment parameters, so the snapshot stays identical at every
	// worker count. Substream u drives (design point u/trials, trial
	// u%trials).
	reg := obs.From(ctx)
	reg.Counter("montecarlo/trials").Add(int64(units))
	reg.Gauge("montecarlo/rng_substreams").Set(float64(units))
	fracs := make([]float64, units)
	err = par.ForEachChunks(ctx, workers, units, 0,
		func(cctx context.Context, lo, hi int) error {
			rngs := sub.Block(uint64(lo), hi-lo)
			for u := lo; u < hi; u++ {
				if err := cctx.Err(); err != nil {
					return err
				}
				b := bundles[u/trials]
				rng := rngs[u-lo]
				// Caves stay serial here: the (point, trial) fan-out above
				// already saturates the pool.
				rows, err := crossbar.BuildLayerWorkers(cctx, b.dec, b.d.Layout.Contact, b.d.Layout.WiresPerLayer, b.d.Config.SigmaT, rng, 1)
				if err != nil {
					return err
				}
				cols, err := crossbar.BuildLayerWorkers(cctx, b.dec, b.d.Layout.Contact, b.d.Layout.WiresPerLayer, b.d.Config.SigmaT, rng, 1)
				if err != nil {
					return err
				}
				fracs[u] = crossbar.NewMemory(rows, cols).UsableFraction()
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	out := make([]MCPoint, len(mcDesignPoints))
	for p, b := range bundles {
		sum := 0.0
		for t := 0; t < trials; t++ {
			sum += fracs[p*trials+t]
		}
		out[p] = MCPoint{
			Type:     mcDesignPoints[p].tp,
			Length:   mcDesignPoints[p].m,
			Analytic: b.d.Yield() * b.d.Yield(),
			MC:       sum / float64(trials),
			Trials:   trials,
		}
	}
	return out, nil
}

// MonteCarloDataset packages the validation experiment as a structured
// dataset; its text rendering is RenderMonteCarlo.
func MonteCarloDataset(points []MCPoint, seed uint64) *dataset.Dataset {
	ds := dataset.New("montecarlo",
		"Monte-Carlo validation — functional crossbar memory vs analytic model",
		dataset.Col("code", dataset.String),
		dataset.Col("M", dataset.Int),
		dataset.Col("analyticY2", dataset.Float),
		dataset.Col("mcUsableFraction", dataset.Float),
		dataset.Col("trials", dataset.Int),
	)
	for _, p := range points {
		ds.AddRow(p.Type.String(), p.Length, p.Analytic, p.MC, p.Trials)
	}
	ds.Meta.Seed = seed
	if len(points) > 0 {
		ds.Meta.Trials = points[0].Trials
	}
	ds.SetText(func() string { return RenderMonteCarlo(points) })
	return ds
}

// RenderMonteCarlo renders the validation table.
func RenderMonteCarlo(points []MCPoint) string {
	tb := textplot.NewTable(
		"Monte-Carlo validation — functional crossbar memory vs analytic model",
		"code", "M", "analytic Y²", "MC usable fraction", "trials")
	for _, p := range points {
		tb.AddRowf(p.Type.String(), p.Length,
			fmt.Sprintf("%.1f%%", 100*p.Analytic),
			fmt.Sprintf("%.1f%%", 100*p.MC), p.Trials)
	}
	return tb.String()
}
