package experiments

import (
	"context"
	"fmt"
	"math"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/textplot"
)

// Fig8Workers computes the effective area per functional bit for all five
// code families over their length grids (tree family 6/8/10, hot family
// 4/6/8) — the paper's Fig. 8. It runs on the par pool with the given worker
// count (<= 0 means GOMAXPROCS) and stops when ctx is cancelled; the output
// is bit-identical at every worker count.
func Fig8Workers(ctx context.Context, cfg core.Config, workers int) ([]YieldPoint, error) {
	units := familyGrid([]familyPanel{
		{code.TypeTree, TreeFamilyLengths},
		{code.TypeGray, TreeFamilyLengths},
		{code.TypeBalancedGray, TreeFamilyLengths},
		{code.TypeHot, HotFamilyLengths},
		{code.TypeArrangedHot, HotFamilyLengths},
	})
	return evalYieldPoints(ctx, cfg, units, workers)
}

// Fig8Dataset packages the bit-area figure as a structured dataset; its
// text rendering is renderFig8.
func Fig8Dataset(points []YieldPoint) *dataset.Dataset {
	ds := dataset.New("fig8", "Fig. 8 — average area per functional bit",
		yieldColumns()...)
	addYieldRows(ds, points)
	if tc6, tc10 := find(points, code.TypeTree, 6), find(points, code.TypeTree, 10); tc6 != nil && tc10 != nil {
		ds.Note("TC area saving M 6->10:   %.0f%% (paper: 51%%)",
			100*(tc6.BitArea-tc10.BitArea)/tc6.BitArea)
	}
	if tc, bgc := find(points, code.TypeTree, 8), find(points, code.TypeBalancedGray, 8); tc != nil && bgc != nil {
		ds.Note("BGC density vs TC at M=8: %.0f%% denser (paper: 30%%)",
			100*(tc.BitArea-bgc.BitArea)/tc.BitArea)
	}
	if hc, ahc := find(points, code.TypeHot, 6), find(points, code.TypeArrangedHot, 6); hc != nil && ahc != nil {
		ds.Note("AHC area vs HC at M=6:    %.0f%% smaller (paper: 13%%)",
			100*(hc.BitArea-ahc.BitArea)/hc.BitArea)
	}
	min := Fig8MinBitArea(points)
	ds.Note("smallest bit area: %.0f nm² with %s M=%d (paper: 169 nm² BGC, 175 nm² AHC)",
		min.BitArea, min.Type, min.Length)
	ds.SetText(func() string { return renderFig8(points, ds.Notes) })
	return ds
}

// Fig8MinBitArea returns the overall smallest bit area and its point.
func Fig8MinBitArea(points []YieldPoint) YieldPoint {
	min := YieldPoint{BitArea: math.Inf(1)}
	for _, p := range points {
		if p.BitArea < min.BitArea {
			min = p
		}
	}
	return min
}

// renderFig8 renders the bit-area figure, then the dataset's notes (the
// paper's comparison ratios).
func renderFig8(points []YieldPoint, notes []string) string {
	s := textplot.NewSeries("Fig. 8 — average area per functional bit", " nm²")
	tb := textplot.NewTable("", "code", "M", "bit area [nm²]", "yield")
	for _, p := range points {
		s.Set(p.Type.String(), fmt.Sprintf("M=%d", p.Length), p.BitArea)
		tb.AddRowf(p.Type.String(), p.Length, p.BitArea, fmt.Sprintf("%.1f%%", 100*p.Yield))
	}
	return withNotes(s.String()+"\n"+tb.String(), notes)
}
