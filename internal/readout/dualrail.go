package readout

import (
	"context"
	"fmt"
	"math"

	"nwdec/internal/code"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

// Dual-rail drive (after DeHon et al., the paper's reference [6]): every
// decoder position carries a complementary pair of mesowires, and each
// region of a nanowire is gated by the rail matching its own code digit.
// Addressing word w drives, at every position, the rail of digit w_j high
// and all other rails low. A region therefore sees a *high* gate exactly
// when its digit matches the address digit, so an unselected wire blocks at
// every mismatched position — Hamming-many blockers instead of the single
// blocker of the band-edge scheme, which is what restores the hot codes'
// sensing margin.

// DualRailGateVoltages returns the gate voltage seen by every region of a
// wire with the given pattern under the dual-rail address w: the upper band
// edge of the region's own level when the digits match, and the lower band
// edge (one level spacing below) when they mismatch.
func DualRailGateVoltages(q *physics.Quantizer, pattern, w code.Word) ([]float64, error) {
	if len(pattern) != len(w) {
		return nil, fmt.Errorf("readout: pattern length %d vs address length %d", len(pattern), len(w))
	}
	out := make([]float64, len(w))
	for j := range w {
		if pattern[j] == w[j] {
			// Matched: rail high — the band edge just above the region's
			// nominal level.
			out[j] = bandEdge(q, pattern[j])
		} else {
			// Mismatched: rail low — a full level spacing below the
			// region's own band edge, holding the device off.
			out[j] = bandEdge(q, pattern[j]-1)
		}
	}
	return out, nil
}

// ReadGroupDualRail evaluates addressing wire target within a group under
// the dual-rail scheme: every wire's regions are gated according to their
// own digit's rail.
func (t Transistor) ReadGroupDualRail(q *physics.Quantizer, patterns []code.Word,
	vts [][]float64, target int) (GroupReadout, error) {
	if target < 0 || target >= len(vts) || len(patterns) != len(vts) {
		return GroupReadout{}, fmt.Errorf("readout: invalid dual-rail group (target %d, %d patterns, %d wires)",
			target, len(patterns), len(vts))
	}
	w := patterns[target]
	var on float64
	var leakSum, worst float64
	for k := range vts {
		va, err := DualRailGateVoltages(q, patterns[k], w)
		if err != nil {
			return GroupReadout{}, err
		}
		g := t.WireConductance(vts[k], va)
		if k == target {
			on = g
			continue
		}
		leakSum += g
		if g > worst {
			worst = g
		}
	}
	out := GroupReadout{Target: target}
	if leakSum == 0 {
		out.OnCurrentRatio = math.Inf(1)
		out.WorstOffRatio = math.Inf(1)
		return out, nil
	}
	out.OnCurrentRatio = on / leakSum
	out.WorstOffRatio = on / worst
	return out, nil
}

// MonteCarloDualRail is the dual-rail counterpart of MonteCarlo.
func MonteCarloDualRail(ctx context.Context, t Transistor, plan *mspt.Plan, q *physics.Quantizer,
	sigmaT, minRatio float64, trials int, sub *stats.Substreams, first uint64, workers int) (*Study, error) {
	return monteCarlo(ctx, t, plan, q, sigmaT, minRatio, trials, sub, first, workers, true)
}
