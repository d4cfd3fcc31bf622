package experiments

import (
	"context"
	"fmt"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/par"
	"nwdec/internal/readout"
	"nwdec/internal/stats"
	"nwdec/internal/textplot"
)

// ReadoutPoint is the analog sensing analysis of one code family.
type ReadoutPoint struct {
	Type   code.Type
	Length int
	// DualRail marks the complementary-pair drive scheme (after DeHon et
	// al.) instead of the simple band-edge drive.
	DualRail bool
	// SensableFraction is the Monte-Carlo fraction of reads meeting the
	// on/off current-ratio criterion.
	SensableFraction float64
	// MedianRatio is the median on/off current ratio.
	MedianRatio float64
	// DigitalYield is the margin-model yield of the same design for
	// comparison.
	DigitalYield float64
}

// readoutStudy is one row of the readout extension: a Fig. 7 design and
// the drive scheme its sensing path is scored under.
type readoutStudy struct {
	tp       code.Type
	m        int
	dualRail bool
}

// readoutStudies are the readout rows in presentation order; study s
// draws substreams s·trials to (s+1)·trials−1. The arranged hot code gets
// a second row under the dual-rail drive, which multiplies its blockers
// per unselected wire.
var readoutStudies = []readoutStudy{
	{code.TypeTree, 10, false},
	{code.TypeGray, 10, false},
	{code.TypeBalancedGray, 10, false},
	{code.TypeArrangedHot, 6, false},
	{code.TypeArrangedHot, 6, true},
}

// ReadoutWorkers runs the analog sensing extension: the same designs as
// Fig. 7, scored by the on/off current-ratio criterion of a
// series-transistor readout path instead of the digital threshold margin.
// It runs on the par pool with the given worker count (<= 0 means
// GOMAXPROCS): the designs are built in parallel, then each study's trials
// run on the pool, trial t of study s drawing substream s·trials+t of the
// seed, so the output is bit-identical at every worker count. The studies
// check ctx once per trial, so cancelling it mid-run returns promptly with
// ctx's error.
func ReadoutWorkers(ctx context.Context, cfg core.Config, trials int, seed uint64, workers int) ([]ReadoutPoint, error) {
	if trials <= 0 {
		trials = 60
	}
	designs, err := par.Map(ctx, workers, readoutStudies,
		func(_ context.Context, _ int, s readoutStudy) (*core.Design, error) {
			c := cfg
			c.CodeType = s.tp
			c.CodeLength = s.m
			return core.NewDesign(c)
		})
	if err != nil {
		return nil, err
	}
	tr := readout.DefaultTransistor()
	sub := stats.NewRNG(seed).Substreams()
	out := make([]ReadoutPoint, len(readoutStudies))
	for i, s := range readoutStudies {
		d := designs[i]
		run := readout.MonteCarlo
		if s.dualRail {
			run = readout.MonteCarloDualRail
		}
		study, err := run(ctx, tr, d.Plan, d.Quantizer, d.Config.SigmaT,
			readout.DefaultMinRatio, trials, sub, uint64(i)*uint64(trials), workers)
		if err != nil {
			return nil, err
		}
		out[i] = ReadoutPoint{
			Type:             s.tp,
			Length:           s.m,
			DualRail:         s.dualRail,
			SensableFraction: study.SensableFraction,
			MedianRatio:      study.Ratios.Median,
			DigitalYield:     d.Yield(),
		}
	}
	return out, nil
}

// ReadoutDataset packages the analog sensing extension as a structured
// dataset; its text rendering is RenderReadout.
func ReadoutDataset(points []ReadoutPoint, trials int, seed uint64) *dataset.Dataset {
	ds := dataset.New("readout",
		"Extension — analog readout (series-FET on/off current ratio >= 10)",
		dataset.Col("code", dataset.String),
		dataset.Col("M", dataset.Int),
		dataset.Col("dualRail", dataset.Bool),
		dataset.Col("sensableFraction", dataset.Float),
		dataset.Col("medianRatio", dataset.Float),
		dataset.Col("digitalYield", dataset.Float),
	)
	for _, p := range points {
		ds.AddRow(p.Type.String(), p.Length, p.DualRail,
			p.SensableFraction, p.MedianRatio, p.DigitalYield)
	}
	ds.Meta.Seed = seed
	ds.Meta.Trials = trials
	ds.Note("Within the tree family the analog criterion preserves the paper's " +
		"ordering (BGC >= GC > TC); hot codes need the dual-rail " +
		"complementary-pair drive to restore their sensing margin to the " +
		"digital-model level.")
	ds.SetText(func() string { return RenderReadout(points) })
	return ds
}

// RenderReadout renders the sensing extension table.
func RenderReadout(points []ReadoutPoint) string {
	tb := textplot.NewTable(
		"Extension — analog readout (series-FET on/off current ratio >= 10)",
		"code", "M", "sensable", "median on/off", "digital-margin yield")
	for _, p := range points {
		name := p.Type.String()
		if p.DualRail {
			name += " (dual-rail)"
		}
		tb.AddRowf(name, p.Length,
			fmt.Sprintf("%.1f%%", 100*p.SensableFraction),
			fmt.Sprintf("%.1f", p.MedianRatio),
			fmt.Sprintf("%.1f%%", 100*p.DigitalYield))
	}
	return tb.String() +
		"\nWithin the tree family the analog criterion preserves the paper's\n" +
		"ordering (BGC >= GC > TC): optimized arrangements accumulate fewer\n" +
		"doses per region and keep higher sensing margins. Hot codes fare\n" +
		"worse than their digital margin suggests under the simple band-edge\n" +
		"drive — every unselected wire leaks through exactly one blocking\n" +
		"device — and the dual-rail row shows the fix: the complementary-pair\n" +
		"drive of DeHon et al. blocks every mismatched position and restores\n" +
		"the sensing margin to the digital-model level.\n"
}
