package crossbar

import (
	"fmt"

	"nwdec/internal/stats"
)

// SpareWires returns the smallest number of spare nanowires a crossbar
// layer must provision so that, with independent per-wire failure
// probability failProb, at least required wires are addressable with the
// given confidence. This is the provisioning rule a memory architect pairs
// with the defect-avoiding logical remap: fabricate required+spares wires,
// map out the failures, expose exactly required logical rows.
func SpareWires(required int, failProb, confidence float64) (int, error) {
	if required <= 0 {
		return 0, fmt.Errorf("crossbar: non-positive required wire count %d", required)
	}
	if failProb < 0 || failProb >= 1 {
		return 0, fmt.Errorf("crossbar: failure probability %g outside [0, 1)", failProb)
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("crossbar: confidence %g outside (0, 1)", confidence)
	}
	okProb := 1 - failProb
	maxSpares := 20 * required
	for spares := 0; spares <= maxSpares; spares++ {
		if stats.BinomialTailGE(required+spares, okProb, required) >= confidence {
			return spares, nil
		}
	}
	return 0, fmt.Errorf("crossbar: no spare count up to %d reaches confidence %g at failure probability %g",
		maxSpares, confidence, failProb)
}
