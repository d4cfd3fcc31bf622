package experiments

import (
	"context"
	"fmt"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/textplot"
)

// Claim is one paper-vs-measured headline number.
type Claim struct {
	Name     string
	Paper    string
	Measured string
	// Holds reports whether the measured value preserves the paper's
	// qualitative claim (direction and rough magnitude).
	Holds bool
}

// HeadlineWorkers evaluates the summary claims of the paper's abstract and
// conclusion against the reproduction and returns one Claim per number. The
// underlying figure evaluations run on the par pool with the given worker
// count (<= 0 means GOMAXPROCS) and stop when ctx is cancelled; the output
// is bit-identical at every worker count.
func HeadlineWorkers(ctx context.Context, cfg core.Config, workers int) ([]Claim, error) {
	var claims []Claim

	// 1. Gray arrangement reduces fabrication complexity by 17% on average
	//    (multi-valued logic, Fig. 5).
	f5, err := Fig5(Fig5N)
	if err != nil {
		return nil, err
	}
	fabSaving := Fig5GraySaving(f5)
	claims = append(claims, Claim{
		Name:     "GC fabrication-complexity saving",
		Paper:    "17%",
		Measured: fmt.Sprintf("%.0f%%", 100*fabSaving),
		Holds:    fabSaving > 0.08 && fabSaving < 0.35,
	})

	// 2. Gray codes reduce the average variability by 18% (Fig. 6).
	f6, err := Fig6Workers(ctx, Fig6N, []int{8, 10}, workers)
	if err != nil {
		return nil, err
	}
	varSaving := Fig6VariabilitySaving(f6)
	claims = append(claims, Claim{
		Name:     "GC/BGC variability saving",
		Paper:    "18%",
		Measured: fmt.Sprintf("%.0f%%", 100*varSaving),
		Holds:    varSaving > 0.08 && varSaving < 0.40,
	})

	// 3. Yield improves ~40% by adding code-length redundancy (Fig. 7).
	f7, err := Fig7Workers(ctx, cfg, workers)
	if err != nil {
		return nil, err
	}
	var lengthGain float64
	if hc4, hc8 := find(f7, code.TypeHot, 4), find(f7, code.TypeHot, 8); hc4 != nil && hc8 != nil {
		lengthGain = (hc8.Yield - hc4.Yield) / hc4.Yield
	}
	claims = append(claims, Claim{
		Name:     "yield gain from code-length redundancy (HC 4->8)",
		Paper:    "~40%",
		Measured: fmt.Sprintf("%+.0f%%", 100*lengthGain),
		Holds:    lengthGain > 0.15,
	})

	// 4. Optimized code types gain 19-42% yield (BGC vs TC, AHC vs HC at
	//    M=8).
	var bgcGain, ahcGain float64
	if tc, bgc := find(f7, code.TypeTree, 8), find(f7, code.TypeBalancedGray, 8); tc != nil && bgc != nil {
		bgcGain = (bgc.Yield - tc.Yield) / tc.Yield
	}
	if hc, ahc := find(f7, code.TypeHot, 8), find(f7, code.TypeArrangedHot, 8); hc != nil && ahc != nil {
		ahcGain = (ahc.Yield - hc.Yield) / hc.Yield
	}
	claims = append(claims, Claim{
		Name:     "optimized-code yield gain (BGC vs TC, AHC vs HC, M=8)",
		Paper:    "+42% / +19%",
		Measured: fmt.Sprintf("%+.0f%% / %+.0f%%", 100*bgcGain, 100*ahcGain),
		Holds:    bgcGain > 0.10 && ahcGain > 0.05,
	})

	// 5. Bit-area saving of 51% from lengthening the tree code 6->10, and
	//    the minimum effective bit area around 169-175 nm² (Fig. 8).
	f8, err := Fig8Workers(ctx, cfg, workers)
	if err != nil {
		return nil, err
	}
	var areaSaving float64
	if tc6, tc10 := find(f8, code.TypeTree, 6), find(f8, code.TypeTree, 10); tc6 != nil && tc10 != nil {
		areaSaving = (tc6.BitArea - tc10.BitArea) / tc6.BitArea
	}
	claims = append(claims, Claim{
		Name:     "TC bit-area saving M 6->10",
		Paper:    "51%",
		Measured: fmt.Sprintf("%.0f%%", 100*areaSaving),
		Holds:    areaSaving > 0.15,
	})
	min := Fig8MinBitArea(f8)
	claims = append(claims, Claim{
		Name:     "smallest effective bit area",
		Paper:    "169 nm² (BGC) / 175 nm² (AHC)",
		Measured: fmt.Sprintf("%.0f nm² (%s M=%d)", min.BitArea, min.Type, min.Length),
		Holds: min.BitArea > 100 && min.BitArea < 350 &&
			(min.Type == code.TypeBalancedGray || min.Type == code.TypeArrangedHot),
	})
	return claims, nil
}

// HeadlineDataset packages the paper-vs-measured table as a structured
// dataset; its text rendering is RenderHeadline.
func HeadlineDataset(claims []Claim) *dataset.Dataset {
	ds := dataset.New("headline", "Headline claims — paper vs reproduction",
		dataset.Col("claim", dataset.String),
		dataset.Col("paper", dataset.String),
		dataset.Col("measured", dataset.String),
		dataset.Col("holds", dataset.Bool),
	)
	for _, c := range claims {
		ds.AddRow(c.Name, c.Paper, c.Measured, c.Holds)
	}
	ds.SetText(func() string { return RenderHeadline(claims) })
	return ds
}

// RenderHeadline renders the paper-vs-measured table.
func RenderHeadline(claims []Claim) string {
	tb := textplot.NewTable("Headline claims — paper vs reproduction", "claim", "paper", "measured", "holds")
	for _, c := range claims {
		holds := "yes"
		if !c.Holds {
			holds = "NO"
		}
		tb.AddRow(c.Name, c.Paper, c.Measured, holds)
	}
	return tb.String()
}
