// Package sweep is the batch design-space exploration engine: it evaluates
// the decoder designer over the Cartesian product of parameter grids and
// emits tidy (long-format) rows suitable for CSV export and downstream
// statistical tooling — the kind of systematic data product the paper's
// evaluation implies but never shipped.
package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/par"
)

// Grid spans the design space to evaluate. Empty slices select the default
// grid for that axis.
type Grid struct {
	// Types are the code families (default: all five).
	Types []code.Type
	// Lengths are the code lengths M; structurally invalid (family, M)
	// pairs are skipped.
	Lengths []int
	// SigmaTs are the per-dose deviations in volts (default: 50 mV).
	SigmaTs []float64
	// MarginFactors scale the sensing margin (default: 1.0).
	MarginFactors []float64
	// HalfCaveWires are the cave populations N (default: 20).
	HalfCaveWires []int
}

// DefaultGrid returns the paper's Fig. 7/8 grid extended with one sigma and
// margin axis point each.
func DefaultGrid() Grid {
	return Grid{
		Types:         code.AllTypes(),
		Lengths:       []int{4, 6, 8, 10},
		SigmaTs:       []float64{0.05},
		MarginFactors: []float64{1.0},
		HalfCaveWires: []int{20},
	}
}

// Validate rejects axis values no design can be built from: every σ_T
// and margin factor must be positive and finite, and every half-cave
// wire count positive. A zero is not a default here — Points would copy
// it into core.Config, where zero means "default", and the row would
// carry a value it was not computed at. A violation is Invalid-class and
// names the axis and the value.
func (g Grid) Validate() error {
	for _, v := range g.SigmaTs {
		if !(v > 0) || math.IsInf(v, 1) {
			return nwerr.Invalidf("sweep: sigmaT must be positive and finite, got %g", v)
		}
	}
	for _, v := range g.MarginFactors {
		if !(v > 0) || math.IsInf(v, 1) {
			return nwerr.Invalidf("sweep: margin factor must be positive and finite, got %g", v)
		}
	}
	for _, n := range g.HalfCaveWires {
		if n <= 0 {
			return nwerr.Invalidf("sweep: half-cave wire count must be positive, got %d", n)
		}
	}
	return nil
}

func (g Grid) withDefaults() Grid {
	d := DefaultGrid()
	if len(g.Types) == 0 {
		g.Types = d.Types
	}
	if len(g.Lengths) == 0 {
		g.Lengths = d.Lengths
	}
	if len(g.SigmaTs) == 0 {
		g.SigmaTs = d.SigmaTs
	}
	if len(g.MarginFactors) == 0 {
		g.MarginFactors = d.MarginFactors
	}
	if len(g.HalfCaveWires) == 0 {
		g.HalfCaveWires = d.HalfCaveWires
	}
	return g
}

// Size returns the number of grid points before validity filtering.
func (g Grid) Size() int {
	g = g.withDefaults()
	return len(g.Types) * len(g.Lengths) * len(g.SigmaTs) * len(g.MarginFactors) * len(g.HalfCaveWires)
}

// Row is one evaluated design point in long format.
type Row struct {
	Type          code.Type
	Length        int
	SigmaT        float64
	MarginFactor  float64
	HalfCaveWires int

	SpaceSize      int
	ContactGroups  int
	Phi            int
	AvgVariability float64
	Yield          float64
	EffectiveBits  float64
	BitArea        float64
}

// Point is one structurally valid grid point: the fully resolved platform
// configuration plus the axis values that produced it (kept alongside the
// config so rows and error messages can echo the grid coordinates without
// re-deriving them).
type Point struct {
	Config        core.Config
	Type          code.Type
	Length        int
	SigmaT        float64
	MarginFactor  float64
	HalfCaveWires int
}

// Points expands the grid over the base platform into its structurally
// valid design points, flattened in the grid's Cartesian order (types →
// lengths → sigmas → margins → wires). The expansion is a pure function
// of (base, grid) — the same inputs yield the same point list in the same
// order in every process — which is what lets the job layer partition the
// list into chunks and address each chunk by index across restarts.
func (g Grid) Points(base core.Config) []Point {
	g = g.withDefaults()
	// The full product bounds the valid points, so the slice is
	// allocated once instead of regrown as it fills.
	points := make([]Point, 0, g.Size())
	for _, tp := range g.Types {
		for _, m := range g.Lengths {
			for _, sigma := range g.SigmaTs {
				for _, mf := range g.MarginFactors {
					for _, n := range g.HalfCaveWires {
						cfg := base.WithDefaults()
						cfg.CodeType = tp
						cfg.CodeLength = m
						cfg.SigmaT = sigma
						cfg.MarginFactor = mf
						cfg.Spec.HalfCaveWires = n
						if !core.ValidLength(tp, cfg.Base, m) {
							continue
						}
						points = append(points, Point{
							Config:        cfg,
							Type:          tp,
							Length:        m,
							SigmaT:        sigma,
							MarginFactor:  mf,
							HalfCaveWires: n,
						})
					}
				}
			}
		}
	}
	return points
}

// EvalPoint resolves one grid point into its design row.
func EvalPoint(p Point) (Row, error) {
	d, err := core.NewDesign(p.Config)
	if err != nil {
		return Row{}, fmt.Errorf("sweep: %v M=%d σ=%g mf=%g N=%d: %w",
			p.Type, p.Length, p.SigmaT, p.MarginFactor, p.HalfCaveWires, err)
	}
	return Row{
		Type:           p.Type,
		Length:         p.Length,
		SigmaT:         p.SigmaT,
		MarginFactor:   p.MarginFactor,
		HalfCaveWires:  p.HalfCaveWires,
		SpaceSize:      d.Generator.SpaceSize(),
		ContactGroups:  d.Layout.Contact.Groups,
		Phi:            d.Phi,
		AvgVariability: d.AvgVariability,
		Yield:          d.Crossbar.Yield,
		EffectiveBits:  d.Crossbar.EffectiveBits,
		BitArea:        d.Crossbar.BitArea,
	}, nil
}

// EvalPoints evaluates a point slice on a bounded worker pool (workers
// <= 0 means GOMAXPROCS) and returns the rows in input order — the
// chunk-evaluation primitive shared by RunWorkers and the job layer.
// Cancelling ctx abandons unfinished points and returns ctx's error.
func EvalPoints(ctx context.Context, workers int, points []Point) ([]Row, error) {
	return par.Map(ctx, workers, points,
		func(_ context.Context, _ int, p Point) (Row, error) {
			return EvalPoint(p)
		})
}

// RunWorkers evaluates every structurally valid grid point on the base
// platform, on the par pool with the given worker count (<= 0 means
// GOMAXPROCS). The valid grid points are flattened in the grid's Cartesian
// order (types → lengths → sigmas → margins → wires) before fanning out, and
// the rows come back in that same order, so the output is bit-identical at
// every worker count. A grid that fails Validate, or has no valid point,
// is an nwerr.Invalid error. Cancelling ctx abandons unfinished points
// and returns ctx's error.
func RunWorkers(ctx context.Context, base core.Config, grid Grid, workers int) ([]Row, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	grid = grid.withDefaults()
	points := grid.Points(base)
	reg := obs.From(ctx)
	span := reg.StartSpan("sweep/run")
	defer span.End()
	reg.Gauge("sweep/grid_size").Set(float64(grid.Size()))
	reg.Counter("sweep/points").Add(int64(len(points)))
	rows, err := EvalPoints(ctx, workers, points)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nwerr.Invalidf("sweep: grid produced no valid design points")
	}
	return rows, nil
}

// Dataset packages sweep rows as a structured dataset whose columns match
// Header() in name and order, so every renderer (CSV included) emits the
// same tidy long format.
func Dataset(rows []Row) *dataset.Dataset {
	ds := dataset.New("sweep", "Design-space sweep (tidy long format)",
		dataset.Col("code", dataset.String),
		dataset.Col("length", dataset.Int),
		dataset.ColUnit("sigmaT_V", "V", dataset.Float),
		dataset.Col("marginFactor", dataset.Float),
		dataset.Col("halfCaveWires", dataset.Int),
		dataset.Col("spaceSize", dataset.Int),
		dataset.Col("contactGroups", dataset.Int),
		dataset.Col("phi", dataset.Int),
		dataset.ColUnit("avgVariability_V2", "V²", dataset.Float),
		dataset.Col("yield", dataset.Float),
		dataset.Col("effectiveBits", dataset.Float),
		dataset.ColUnit("bitArea_nm2", "nm²", dataset.Float),
	)
	for _, r := range rows {
		ds.AddRow(r.Type.String(), r.Length, r.SigmaT, r.MarginFactor,
			r.HalfCaveWires, r.SpaceSize, r.ContactGroups, r.Phi,
			r.AvgVariability, r.Yield, r.EffectiveBits, r.BitArea)
	}
	return ds
}

// Header lists the CSV column names, matching WriteCSV's output order.
func Header() []string {
	return []string{
		"code", "length", "sigmaT_V", "marginFactor", "halfCaveWires",
		"spaceSize", "contactGroups", "phi", "avgVariability_V2",
		"yield", "effectiveBits", "bitArea_nm2",
	}
}

// WriteCSV emits the rows in tidy long format.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header()); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Type.String(),
			strconv.Itoa(r.Length),
			formatFloat(r.SigmaT),
			formatFloat(r.MarginFactor),
			strconv.Itoa(r.HalfCaveWires),
			strconv.Itoa(r.SpaceSize),
			strconv.Itoa(r.ContactGroups),
			strconv.Itoa(r.Phi),
			formatFloat(r.AvgVariability),
			formatFloat(r.Yield),
			formatFloat(r.EffectiveBits),
			formatFloat(r.BitArea),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 8, 64)
}
