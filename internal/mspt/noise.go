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
// threshold voltages under both noise components: every dose a region
// receives adds an independent random term (SigmaRandom), and every
// lithography/doping pass adds one shared systematic offset
// (SigmaSystematic) to all the regions it doses, on every spacer it hits.
// nominal maps digits to nominal threshold voltages.
//
// With SigmaSystematic = 0 this is SampleVT at σ_T = SigmaRandom.
func (p *Plan) SampleVTCorrelated(rng *stats.RNG, np NoiseParams, nominal func(digit int) float64) [][]float64 {
	vt := p.NewVTArena()
	p.SampleVTCorrelatedInto(rng, np, nominal, vt)
	return vt
}

// SampleVTCorrelatedInto is SampleVTCorrelated writing into caller-owned
// row buffers: dst must hold N rows of M floats (see NewVTArena), and every
// entry is overwritten.
//
// It draws the random part exactly as SampleVTInto does (one ziggurat
// draw per dosed region, scaled by σ_r·√ν: ν independent per-dose terms
// sum to √ν times one), so with SigmaSystematic = 0 it consumes the same
// draws and returns the same bits. When SigmaSystematic > 0 it then draws
// one ziggurat offset per pass, from the bottom row up and within a row in
// ascending dose order, and adds to each region the sum of the offsets of
// the passes that dose it: the passes of rows i..N-1 that dose its column.
// Summing from the bottom row up makes that O(N·M) instead of replaying
// every pass onto every spacer above it, and each region still receives
// every pass's offset exactly as the fabrication flow applies it. Its only
// allocation is the per-column offset sum, and only when SigmaSystematic
// is positive.
func (p *Plan) SampleVTCorrelatedInto(rng *stats.RNG, np NoiseParams, nominal func(digit int) float64, dst [][]float64) {
	p.SampleVTInto(rng, np.SigmaRandom, nominal, dst)
	if np.SigmaSystematic <= 0 {
		return
	}
	// shared[j] is the offset sum of the passes at or below row i that
	// dose column j. buf holds a row's passes on the stack: only a row of
	// more than 8 distinct step doses makes distinctNonZero allocate.
	shared := make([]float64, p.m)
	var buf [8]int64
	for i := p.n - 1; i >= 0; i-- {
		for _, dose := range distinctNonZero(buf[:0], p.s[i]) {
			offset := np.SigmaSystematic * rng.NormFloat64Fast()
			for j, v := range p.s[i] {
				if v == dose {
					shared[j] += offset
				}
			}
		}
		row := dst[i]
		for j := range row {
			row[j] += shared[j]
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
