package mspt

import (
	"fmt"
	"math"

	"nwdec/internal/stats"
)

// NoiseParams models the two variability components of an implantation
// pass. The paper's analysis uses only the independent per-region term
// (σ_T); real implanters also exhibit a per-pass systematic error — a dose
// calibration offset shared by every region the pass exposes, on every
// spacer it hits — which correlates the thresholds of wires patterned
// together and is invisible to the i.i.d. model.
type NoiseParams struct {
	// SigmaRandom is the per-dose, per-region independent threshold
	// deviation in volts (the paper's σ_T).
	SigmaRandom float64
	// SigmaSystematic is the per-pass shared threshold deviation in volts.
	SigmaSystematic float64
}

// Validate reports whether the parameters are meaningful.
func (n NoiseParams) Validate() error {
	if n.SigmaRandom < 0 || n.SigmaSystematic < 0 {
		return fmt.Errorf("mspt: negative noise sigma %+v", n)
	}
	return nil
}

// EffectiveSigma returns the marginal threshold standard deviation of a
// region dosed nu times: both components add in variance per dose, so the
// marginal distribution matches the i.i.d. model with
// σ² = ν·(σ_r² + σ_s²) — only the cross-region correlations differ.
func (n NoiseParams) EffectiveSigma(nu int) float64 {
	return math.Sqrt(float64(nu) * (n.SigmaRandom*n.SigmaRandom + n.SigmaSystematic*n.SigmaSystematic))
}

// SampleVTCorrelated draws one Monte-Carlo realization of the decoder's
// threshold voltages by replaying the fabrication flow pass by pass: every
// lithography/doping pass draws one shared systematic offset plus an
// independent random term per (spacer, region) it doses. nominal maps
// digits to nominal threshold voltages.
//
// With SigmaSystematic = 0 this is statistically identical to SampleVT.
func (p *Plan) SampleVTCorrelated(rng *stats.RNG, np NoiseParams, nominal func(digit int) float64) [][]float64 {
	vt := p.NewVTArena()
	p.SampleVTCorrelatedInto(rng, np, nominal, vt)
	return vt
}

// SampleVTCorrelatedInto is SampleVTCorrelated writing into caller-owned
// row buffers: dst must hold N rows of M floats (see NewVTArena), and every
// entry is overwritten. It makes SampleVTCorrelated's draws in the same
// order, so realizations are bit-identical; its only allocation is the
// one dose scratch slice shared by all N passes' rows.
func (p *Plan) SampleVTCorrelatedInto(rng *stats.RNG, np NoiseParams, nominal func(digit int) float64, dst [][]float64) {
	for i := 0; i < p.n; i++ {
		row := dst[i]
		for j := 0; j < p.m; j++ {
			row[j] = nominal(p.pattern[i][j])
		}
	}
	doses := make([]int64, 0, p.m)
	for i := 0; i < p.n; i++ {
		doses = distinctNonZero(doses, p.s[i])
		for _, dose := range doses {
			offset := rng.Normal(0, np.SigmaSystematic)
			for j, v := range p.s[i] {
				if v != dose {
					continue
				}
				for k := 0; k <= i; k++ {
					dst[k][j] += offset + rng.Normal(0, np.SigmaRandom)
				}
			}
		}
	}
}

// PassCorrelationProbe estimates, over trials Monte-Carlo runs, the sample
// correlation between the threshold errors of two regions (i1, j1) and
// (i2, j2). Regions sharing implantation passes show positive correlation
// under a systematic component; fully independent regions stay near zero.
func (p *Plan) PassCorrelationProbe(rng *stats.RNG, np NoiseParams, nominal func(int) float64,
	i1, j1, i2, j2, trials int) float64 {
	if trials < 2 {
		return 0
	}
	xs := make([]float64, trials)
	ys := make([]float64, trials)
	for t := 0; t < trials; t++ {
		vt := p.SampleVTCorrelated(rng, np, nominal)
		xs[t] = vt[i1][j1] - nominal(p.pattern[i1][j1])
		ys[t] = vt[i2][j2] - nominal(p.pattern[i2][j2])
	}
	return stats.Correlation(xs, ys)
}
