package experiments

import (
	"context"
	"fmt"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/par"
	"nwdec/internal/textplot"
)

// TreeFamilyLengths is the code-length grid of the tree-based panels of
// Figs. 7 and 8.
var TreeFamilyLengths = []int{6, 8, 10}

// HotFamilyLengths is the code-length grid of the hot-code panels of
// Figs. 7 and 8.
var HotFamilyLengths = []int{4, 6, 8}

// YieldPoint is one (code type, code length) evaluation of the 16 kbit
// crossbar platform.
type YieldPoint struct {
	Type    code.Type
	Length  int
	Yield   float64
	BitArea float64
	// Phi and AvgVariability give the fabrication-side costs of the same
	// design point.
	Phi            int
	AvgVariability float64
}

// familyPoint is one (code family, code length) unit of a panel grid.
type familyPoint struct {
	tp code.Type
	m  int
}

// familyPanel is one (family, length grid) panel of a figure.
type familyPanel struct {
	tp      code.Type
	lengths []int
}

// familyGrid flattens panels of (family, length grid) into evaluation units
// in presentation order.
func familyGrid(panels []familyPanel) []familyPoint {
	var units []familyPoint
	for _, panel := range panels {
		for _, m := range panel.lengths {
			units = append(units, familyPoint{tp: panel.tp, m: m})
		}
	}
	return units
}

// evalYieldPoints evaluates the design points of a panel grid on the worker
// pool. Each unit is a pure function of cfg, so the output order (and every
// value in it) is independent of the worker count. Cancelling ctx stops the
// evaluation and returns ctx's error.
func evalYieldPoints(ctx context.Context, cfg core.Config, units []familyPoint, workers int) ([]YieldPoint, error) {
	return par.Map(ctx, workers, units,
		func(_ context.Context, _ int, u familyPoint) (YieldPoint, error) {
			c := cfg
			c.CodeType = u.tp
			c.CodeLength = u.m
			d, err := core.NewDesign(c)
			if err != nil {
				return YieldPoint{}, fmt.Errorf("experiments: %s M=%d: %w", u.tp, u.m, err)
			}
			return YieldPoint{
				Type:           u.tp,
				Length:         u.m,
				Yield:          d.Yield(),
				BitArea:        d.BitArea(),
				Phi:            d.Phi,
				AvgVariability: d.AvgVariability,
			}, nil
		})
}

// Fig7Workers computes the crossbar yield versus code length for the paper's
// two panels: TC vs BGC over lengths 6/8/10 and HC vs AHC over lengths
// 4/6/8. It runs on the par pool with the given worker count (<= 0 means
// GOMAXPROCS) and stops when ctx is cancelled; the output is bit-identical
// at every worker count.
func Fig7Workers(ctx context.Context, cfg core.Config, workers int) ([]YieldPoint, error) {
	units := familyGrid([]familyPanel{
		{code.TypeTree, TreeFamilyLengths},
		{code.TypeBalancedGray, TreeFamilyLengths},
		{code.TypeHot, HotFamilyLengths},
		{code.TypeArrangedHot, HotFamilyLengths},
	})
	return evalYieldPoints(ctx, cfg, units, workers)
}

// yieldColumns is the shared schema of the Fig. 7/8 yield datasets.
func yieldColumns() []dataset.Column {
	return []dataset.Column{
		dataset.Col("code", dataset.String),
		dataset.Col("M", dataset.Int),
		dataset.Col("yield", dataset.Float),
		dataset.ColUnit("phi", "steps", dataset.Int),
		dataset.ColUnit("avgVariability", "σ_T²·V²", dataset.Float),
		dataset.ColUnit("bitArea", "nm²", dataset.Float),
	}
}

func addYieldRows(ds *dataset.Dataset, points []YieldPoint) {
	for _, p := range points {
		ds.AddRow(p.Type.String(), p.Length, p.Yield, p.Phi, p.AvgVariability, p.BitArea)
	}
}

// Fig7Dataset packages the yield figure as a structured dataset; its text
// rendering is renderFig7.
func Fig7Dataset(points []YieldPoint) *dataset.Dataset {
	ds := dataset.New("fig7",
		"Fig. 7 — crossbar yield (addressable crosspoint fraction)",
		yieldColumns()...)
	addYieldRows(ds, points)
	if tc6, tc10 := find(points, code.TypeTree, 6), find(points, code.TypeTree, 10); tc6 != nil && tc10 != nil {
		ds.Note("TC yield gain M 6->10: %+.0f%% (paper: ~40%%)", 100*(tc10.Yield-tc6.Yield)/tc6.Yield)
	}
	if hc4, hc8 := find(points, code.TypeHot, 4), find(points, code.TypeHot, 8); hc4 != nil && hc8 != nil {
		ds.Note("HC yield gain M 4->8:  %+.0f%% (paper: ~40%%)", 100*(hc8.Yield-hc4.Yield)/hc4.Yield)
	}
	if tc, bgc := find(points, code.TypeTree, 8), find(points, code.TypeBalancedGray, 8); tc != nil && bgc != nil {
		ds.Note("BGC vs TC at M=8:      %+.0f%% (paper: +42%%)", 100*(bgc.Yield-tc.Yield)/tc.Yield)
	}
	if hc, ahc := find(points, code.TypeHot, 8), find(points, code.TypeArrangedHot, 8); hc != nil && ahc != nil {
		ds.Note("AHC vs HC at M=8:      %+.0f%% (paper: +19%%)", 100*(ahc.Yield-hc.Yield)/hc.Yield)
	}
	ds.SetText(func() string { return renderFig7(points, ds.Notes) })
	return ds
}

// find returns the point for (tp, length), or nil.
func find(points []YieldPoint, tp code.Type, length int) *YieldPoint {
	for i := range points {
		if points[i].Type == tp && points[i].Length == length {
			return &points[i]
		}
	}
	return nil
}

// renderFig7 renders the yield panels, then the dataset's notes (the
// paper's comparison ratios).
func renderFig7(points []YieldPoint, notes []string) string {
	s := textplot.NewSeries("Fig. 7 — crossbar yield (addressable crosspoint fraction)", "%")
	tb := textplot.NewTable("", "code", "M", "yield", "Φ", "avg Σ [σ²]")
	for _, p := range points {
		s.Set(p.Type.String(), fmt.Sprintf("M=%d", p.Length), 100*p.Yield)
		tb.AddRowf(p.Type.String(), p.Length, fmt.Sprintf("%.1f%%", 100*p.Yield), p.Phi, p.AvgVariability/(0.05*0.05))
	}
	return withNotes(s.String()+"\n"+tb.String(), notes)
}
