package experiments

import (
	"fmt"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/crossbar"
	"nwdec/internal/dataset"
	"nwdec/internal/textplot"
)

// SparePoint is the spare-wire provisioning of one decoder design.
type SparePoint struct {
	Type code.Type
	// WireFailProb is the per-wire addressability failure probability of
	// the design (1 - mean wire probability).
	WireFailProb float64
	// Spares is the extra wires per 128-wire layer needed for 99%
	// confidence of full capacity.
	Spares int
	// Overhead is Spares / 128.
	Overhead float64
}

// Spares computes, for each code family at its best length, how many spare
// nanowires a 128-wire layer must provision so the defect-avoiding remap
// can still expose 128 logical rows with 99% confidence — the memory-
// architecture consequence of the decoder yields of Fig. 7.
func Spares(cfg core.Config) ([]SparePoint, error) {
	const required = 128
	const confidence = 0.99
	var out []SparePoint
	for _, tp := range code.AllTypes() {
		m := 10
		if !tp.Reflected() {
			m = 6
		}
		c := cfg
		c.CodeType = tp
		c.CodeLength = m
		d, err := core.NewDesign(c)
		if err != nil {
			return nil, err
		}
		failProb := 1 - d.Crossbar.HalfCave.Yield
		spares, err := crossbar.SpareWires(required, failProb, confidence)
		if err != nil {
			return nil, err
		}
		out = append(out, SparePoint{
			Type:         tp,
			WireFailProb: failProb,
			Spares:       spares,
			Overhead:     float64(spares) / required,
		})
	}
	return out, nil
}

// SparesDataset packages the provisioning study as a structured dataset;
// its text rendering is RenderSpares.
func SparesDataset(points []SparePoint) *dataset.Dataset {
	ds := dataset.New("spares",
		"Extension — spare-wire provisioning for 128 logical rows at 99% confidence",
		dataset.Col("code", dataset.String),
		dataset.Col("wireFailProb", dataset.Float),
		dataset.Col("spares", dataset.Int),
		dataset.Col("overhead", dataset.Float),
	)
	for _, p := range points {
		ds.AddRow(p.Type.String(), p.WireFailProb, p.Spares, p.Overhead)
	}
	ds.Note("Better codes buy capacity directly: every point of decoder yield " +
		"saved by the Gray arrangements is spare wires the memory does not " +
		"have to fabricate.")
	ds.SetText(func() string { return RenderSpares(points) })
	return ds
}

// RenderSpares renders the provisioning table.
func RenderSpares(points []SparePoint) string {
	tb := textplot.NewTable(
		"Extension — spare-wire provisioning for 128 logical rows at 99% confidence",
		"code", "wire failure prob", "spares", "overhead")
	for _, p := range points {
		tb.AddRowf(p.Type.String(),
			fmt.Sprintf("%.1f%%", 100*p.WireFailProb),
			p.Spares,
			fmt.Sprintf("%.0f%%", 100*p.Overhead))
	}
	return tb.String() +
		"\nBetter codes buy capacity directly: every point of decoder yield\n" +
		"saved by the Gray arrangements is spare wires (and cave area) the\n" +
		"memory does not have to fabricate.\n"
}

// SneakPoint is the sensing analysis of one array size.
type SneakPoint struct {
	ArraySize    int
	PassiveRatio float64
	DiodeRatio   float64
}

// Sneak analyses the storage-cell sensing constraint of the crossbar
// memory: the worst-case off/on read ratio versus array size for a passive
// molecular-switch cell and for the diode-isolated cell of the paper's
// reference [16], plus the write-disturb margins of the V/2 and V/3 bias
// schemes.
func Sneak(sizes []int) ([]SneakPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{16, 32, 64, 128, 256, 512}
	}
	passive := crossbar.DefaultCellModel()
	diode := crossbar.DiodeCellModel()
	var out []SneakPoint
	for _, n := range sizes {
		if n < 2 {
			return nil, fmt.Errorf("experiments: array size %d too small", n)
		}
		out = append(out, SneakPoint{
			ArraySize:    n,
			PassiveRatio: passive.OffReadRatio(n),
			DiodeRatio:   diode.OffReadRatio(n),
		})
	}
	return out, nil
}

// SneakDataset packages the sensing analysis as a structured dataset; its
// text rendering is renderSneak.
func SneakDataset(points []SneakPoint) *dataset.Dataset {
	ds := dataset.New("sneak",
		"Extension — crosspoint sensing: worst-case off/on read ratio",
		dataset.Col("arraySize", dataset.Int),
		dataset.Col("passiveRatio", dataset.Float),
		dataset.Col("diodeRatio", dataset.Float),
	)
	for _, p := range points {
		ds.AddRow(p.ArraySize, p.PassiveRatio, p.DiodeRatio)
	}
	diode := crossbar.DiodeCellModel()
	ds.Note("max diode-isolated array at sensing ratio 1.5: %d wires/side",
		diode.MaxReadableArray(1.5))
	half, err := diode.DisturbMargin(1.2, crossbar.BiasHalf)
	third, err2 := diode.DisturbMargin(1.2, crossbar.BiasThird)
	if err == nil && err2 == nil {
		ds.Note("write-disturb margin at 1.2 V: V/2 scheme %.2f, V/3 scheme %.2f",
			half, third)
	}
	ds.SetText(func() string { return renderSneak(points, ds.Notes) })
	return ds
}

// renderSneak renders the sensing table, then the dataset's notes (the
// readable-array limit and the bias-scheme margins).
func renderSneak(points []SneakPoint, notes []string) string {
	tb := textplot.NewTable(
		"Extension — crosspoint sensing: worst-case off/on read ratio",
		"array n x n", "passive cell", "diode cell [16]")
	for _, p := range points {
		tb.AddRowf(p.ArraySize,
			fmt.Sprintf("%.3f", p.PassiveRatio),
			fmt.Sprintf("%.3f", p.DiodeRatio))
	}
	return withNotes(tb.String(), notes) +
		"\nPassive crosspoints are shorted by sneak paths beyond a few wires;\n" +
		"the integrated nanowire diode of reference [16] restores sensing\n" +
		"ratios that comfortably cover the paper's 128-wire layers.\n"
}
