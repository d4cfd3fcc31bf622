package core

import (
	"context"
	"fmt"
	"sort"

	"nwdec/internal/code"
	"nwdec/internal/nwerr"
	"nwdec/internal/obs"
	"nwdec/internal/par"
)

// SweepPoint is one evaluated configuration in a design-space sweep.
type SweepPoint struct {
	Type   code.Type
	Length int
	Design *Design
}

// SweepWorkers evaluates the base configuration across every combination of
// the given code types and code lengths on the par pool with the given
// worker count (<= 0 means GOMAXPROCS). Combinations that are structurally
// invalid for a family (e.g. a hot-code length not divisible by the base)
// are skipped silently, so callers can pass one shared length grid; a grid
// with no valid combination is an nwerr.Invalid error. Every design point is
// a pure function of the base configuration, so the output is bit-identical
// at every worker count. Cancelling ctx abandons unfinished points and
// returns ctx's error.
func SweepWorkers(ctx context.Context, base Config, types []code.Type, lengths []int, workers int) ([]SweepPoint, error) {
	type unit struct {
		tp code.Type
		m  int
	}
	var units []unit
	for _, tp := range types {
		for _, m := range lengths {
			if !ValidLength(tp, base.Base, m) {
				continue
			}
			units = append(units, unit{tp: tp, m: m})
		}
	}
	reg := obs.From(ctx)
	span := reg.StartSpan("core/sweep")
	defer span.End()
	reg.Counter("core/sweep/points").Add(int64(len(units)))
	points, err := par.Map(ctx, workers, units,
		func(_ context.Context, _ int, u unit) (SweepPoint, error) {
			cfg := base
			cfg.CodeType = u.tp
			cfg.CodeLength = u.m
			d, err := NewDesign(cfg)
			if err != nil {
				return SweepPoint{}, fmt.Errorf("core: sweep %v M=%d: %w", u.tp, u.m, err)
			}
			return SweepPoint{Type: u.tp, Length: u.m, Design: d}, nil
		})
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, nwerr.Invalidf("core: sweep produced no valid configurations")
	}
	return points, nil
}

// ValidLength reports whether code length m is structurally valid for the
// family at the given base (0 selects binary): reflected families need an
// even length, the others a multiple of the base. Sweeps use it to skip the
// (family, length) pairs of a shared grid that cannot be built.
func ValidLength(tp code.Type, base, m int) bool {
	if base == 0 {
		base = 2
	}
	if m <= 0 {
		return false
	}
	if tp.Reflected() {
		return m%2 == 0
	}
	return m%base == 0
}

// Objective ranks designs in an optimization.
type Objective int

// Optimization objectives.
const (
	// MinBitArea minimizes the effective area per working bit — the
	// paper's headline figure of merit.
	MinBitArea Objective = iota
	// MaxYield maximizes the cave yield.
	MaxYield
	// MinPhi minimizes the fabrication complexity, breaking ties on bit
	// area.
	MinPhi
)

// ParseObjective resolves an objective name: "area" (or "", the
// default), "yield" or "phi". Any other name is Invalid-class.
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "", "area":
		return MinBitArea, nil
	case "yield":
		return MaxYield, nil
	case "phi":
		return MinPhi, nil
	}
	return 0, nwerr.Invalidf("unknown objective %q (want area, yield or phi)", name)
}

// Optimize sweeps the design space on the par pool with the given worker
// count (<= 0 means GOMAXPROCS) and returns the best design under the
// objective. Ties break deterministically on (type order, shorter length),
// so the result is the same at every worker count. Cancelling ctx aborts
// the underlying sweep with ctx's error.
func Optimize(ctx context.Context, base Config, types []code.Type, lengths []int, obj Objective, workers int) (*Design, error) {
	points, err := SweepWorkers(ctx, base, types, lengths, workers)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(points, func(i, j int) bool {
		a, b := points[i], points[j]
		switch obj {
		case MaxYield:
			if a.Design.Yield() != b.Design.Yield() {
				return a.Design.Yield() > b.Design.Yield()
			}
		case MinPhi:
			if a.Design.Phi != b.Design.Phi {
				return a.Design.Phi < b.Design.Phi
			}
			if a.Design.BitArea() != b.Design.BitArea() {
				return a.Design.BitArea() < b.Design.BitArea()
			}
		default: // MinBitArea
			if a.Design.BitArea() != b.Design.BitArea() {
				return a.Design.BitArea() < b.Design.BitArea()
			}
		}
		return a.Length < b.Length
	})
	return points[0].Design, nil
}
