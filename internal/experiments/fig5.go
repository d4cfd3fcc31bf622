// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 6): Fig. 5 (fabrication complexity per code and logic
// type), Fig. 6 (variability maps), Fig. 7 (crossbar yield vs code length),
// Fig. 8 (effective bit area), and the headline summary numbers of the
// abstract/conclusion, each as a structured result plus a text rendering.
package experiments

import (
	"fmt"

	"nwdec/internal/code"
	"nwdec/internal/dataset"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/textplot"
)

// Fig5N is the paper's half-cave population for the fabrication-complexity
// study: N = 10 nanowires.
const Fig5N = 10

// Fig5Row is the fabrication complexity of one logic valency.
type Fig5Row struct {
	Logic  string
	Base   int
	Length int // minimal reflected code length whose space holds N words
	PhiTC  int
	PhiGC  int
}

// Fig5 computes the technology complexity Φ for tree and Gray codes in
// binary, ternary and quaternary logic with N nanowires per half cave
// (Fig. 5 of the paper). The code length per logic valency is the minimal
// reflected length whose space holds the N code words.
func Fig5(n int) ([]Fig5Row, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: non-positive N %d", n)
	}
	logics := []struct {
		name string
		base int
	}{
		{"binary", 2}, {"ternary", 3}, {"quaternary", 4},
	}
	var rows []Fig5Row
	for _, lg := range logics {
		length := minReflectedLength(lg.base, n)
		q, err := physics.NewQuantizer(physics.DefaultPhysicalModel(), lg.base, 0, 1)
		if err != nil {
			return nil, err
		}
		row := Fig5Row{Logic: lg.name, Base: lg.base, Length: length}
		for _, tp := range []code.Type{code.TypeTree, code.TypeGray} {
			g, err := code.New(tp, lg.base, length)
			if err != nil {
				return nil, err
			}
			plan, err := mspt.NewPlanFromGenerator(g, n, q, 0)
			if err != nil {
				return nil, err
			}
			switch tp {
			case code.TypeTree:
				row.PhiTC = plan.Phi()
			case code.TypeGray:
				row.PhiGC = plan.Phi()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// minReflectedLength returns the smallest even M with base^(M/2) >= n.
func minReflectedLength(base, n int) int {
	length := 2
	size := base
	for size < n {
		size *= base
		length += 2
	}
	return length
}

// Fig5GraySaving returns the average relative saving of the Gray code over
// the tree code across the multi-valued (ternary and quaternary) logics —
// the paper's 17% headline.
func Fig5GraySaving(rows []Fig5Row) float64 {
	sum, count := 0.0, 0
	for _, r := range rows {
		if r.Base == 2 {
			continue // binary codes all cost 2N; no saving possible
		}
		sum += float64(r.PhiTC-r.PhiGC) / float64(r.PhiTC)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Fig5Dataset packages the figure as a structured dataset; its text
// rendering is renderFig5.
func Fig5Dataset(rows []Fig5Row) *dataset.Dataset {
	ds := dataset.New("fig5",
		fmt.Sprintf("Fig. 5 — fabrication complexity Φ (additional litho/doping steps), N=%d", Fig5N),
		dataset.Col("logic", dataset.String),
		dataset.Col("base", dataset.Int),
		dataset.Col("M", dataset.Int),
		dataset.ColUnit("phiTC", "steps", dataset.Int),
		dataset.ColUnit("phiGC", "steps", dataset.Int),
		dataset.Col("gcSaving", dataset.Float),
	)
	for _, r := range rows {
		saving := float64(r.PhiTC-r.PhiGC) / float64(r.PhiTC)
		ds.AddRow(r.Logic, r.Base, r.Length, r.PhiTC, r.PhiGC, saving)
	}
	ds.Note("average multi-valued GC saving: %.0f%% (paper: 17%%)", 100*Fig5GraySaving(rows))
	ds.SetText(func() string { return renderFig5(rows, ds.Notes) })
	return ds
}

// renderFig5 renders the figure as a grouped bar chart plus a table, then
// the dataset's notes.
func renderFig5(rows []Fig5Row, notes []string) string {
	s := textplot.NewSeries(
		fmt.Sprintf("Fig. 5 — fabrication complexity Φ (additional litho/doping steps), N=%d", Fig5N),
		" steps", "TC", "GC")
	tb := textplot.NewTable("", "logic", "base", "M", "Φ(TC)", "Φ(GC)", "GC saving")
	for _, r := range rows {
		s.Set("TC", r.Logic, float64(r.PhiTC))
		s.Set("GC", r.Logic, float64(r.PhiGC))
		saving := float64(r.PhiTC-r.PhiGC) / float64(r.PhiTC)
		tb.AddRowf(r.Logic, r.Base, r.Length, r.PhiTC, r.PhiGC, fmt.Sprintf("%.0f%%", 100*saving))
	}
	return withNotes(s.String()+"\n"+tb.String(), notes)
}

// withNotes appends a text figure's notes to out: each note on a line of
// its own after a blank line, closed by a newline.
func withNotes(out string, notes []string) string {
	for _, n := range notes {
		out += "\n" + n
	}
	return out + "\n"
}
