package experiments

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/crossbar"
	"nwdec/internal/mspt"
	"nwdec/internal/stats"
)

func TestNoiseStudy(t *testing.T) {
	res, err := NoiseStudyWorkers(context.Background(), core.Config{}, 150, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The derived per-dose sigma must be in the same regime as the paper's
	// 50 mV assumption (within a factor of ~3).
	ratio := res.DerivedSigmaT / res.AssumedSigmaT
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("derived σ_T %g V too far from assumed %g V", res.DerivedSigmaT, res.AssumedSigmaT)
	}
	// More noise, less yield (the derived sigma is above 50 mV here).
	if res.DerivedSigmaT > res.AssumedSigmaT && res.YieldDerived >= res.YieldAssumed {
		t.Errorf("yield did not fall with larger σ_T: %g vs %g", res.YieldDerived, res.YieldAssumed)
	}
	// The two functional yields agree within Monte-Carlo resolution.
	if math.Abs(res.IIDYield-res.CorrelatedYield) > 0.05 {
		t.Errorf("correlated yield %g deviates from iid %g beyond MC noise",
			res.CorrelatedYield, res.IIDYield)
	}
	// Both functional yields track the analytic model loosely.
	if math.Abs(res.IIDYield-res.YieldAssumed) > 0.12 {
		t.Errorf("functional %g far from analytic %g", res.IIDYield, res.YieldAssumed)
	}
	out := RenderNoiseStudy(res)
	for _, want := range []string{"derived per-dose", "pass-correlated", "mV"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestNoiseStudyDefaults(t *testing.T) {
	res, err := NoiseStudyWorkers(context.Background(), core.Config{}, 0, 1, 0) // trials default
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 200 {
		t.Errorf("default trials = %d", res.Trials)
	}
}

func TestNoiseStudyDeterministic(t *testing.T) {
	a, err := NoiseStudyWorkers(context.Background(), core.Config{}, 50, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NoiseStudyWorkers(context.Background(), core.Config{}, 50, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.IIDYield != b.IIDYield || a.CorrelatedYield != b.CorrelatedYield {
		t.Error("noise study not deterministic under fixed seed")
	}
}

// replayVTCorrelated is the oracle of mspt.Plan.SampleVTCorrelatedInto:
// the fabrication flow replayed pass by pass, which is how the sampler
// drew before it summed the passes from the bottom row up. Every pass
// (one per distinct non-zero value of a step-doping row, ascending) draws
// one shared offset, and every (pass, region, spacer at or above the
// pass's row) an independent term, serially from one stream with the
// polar sampler: O(N²·M) draws where the sampler makes O(N·M).
func replayVTCorrelated(p *mspt.Plan, rng *stats.RNG, np mspt.NoiseParams, nominal func(int) float64, dst [][]float64) {
	pattern, s := p.Pattern(), p.S()
	for i, w := range pattern {
		for j, digit := range w {
			dst[i][j] = nominal(digit)
		}
	}
	for i, row := range s {
		var doses []int64
		for _, v := range row {
			if v != 0 && !slices.Contains(doses, v) {
				doses = append(doses, v)
			}
		}
		slices.Sort(doses)
		for _, dose := range doses {
			offset := rng.Normal(0, np.SigmaSystematic)
			for j, v := range row {
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

// TestCorrelatedSamplerMatchesReplay checks that the noise study's sampler
// and its per-trial substreams draw from the distribution the serial pass
// replay drew from: under both of the study's noise settings, every
// wire's functional addressable fraction agrees between the two at a
// false-failure rate of 1e-6 for the whole test, Bonferroni-corrected over
// the 2 settings × N wires. Each wire's count over independent trials is
// binomial, so the two-sample proportion tolerance applies as it stands.
func TestCorrelatedSamplerMatchesReplay(t *testing.T) {
	const trials = 20000
	cfg := core.Config{CodeType: code.TypeBalancedGray, CodeLength: 10}
	d, err := core.NewDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := crossbar.NewDecoder(d.Plan, d.Quantizer)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Plan.N()
	sigma := d.Config.SigmaT
	half := sigma / math.Sqrt2
	settings := []mspt.NoiseParams{
		{SigmaRandom: sigma},
		{SigmaRandom: half, SigmaSystematic: half},
	}
	vt := d.Plan.NewVTArena()
	unique := make([]bool, n)
	count := func(sample func()) []int {
		ok := make([]int, n)
		for tr := 0; tr < trials; tr++ {
			sample()
			dec.UniquelyAddressableInto(vt, 0, n, unique)
			for w, u := range unique {
				if u {
					ok[w]++
				}
			}
		}
		return ok
	}
	for si, np := range settings {
		rng := stats.NewRNG(uint64(101 + si))
		replay := count(func() { replayVTCorrelated(d.Plan, rng, np, d.Quantizer.VTOf, vt) })
		sub := stats.NewRNG(uint64(201 + si)).Substreams()
		next := uint64(0)
		sampled := count(func() {
			d.Plan.SampleVTCorrelatedInto(sub.At(next), np, d.Quantizer.VTOf, vt)
			next++
		})
		for w := 0; w < n; w++ {
			pr, ps := float64(replay[w])/trials, float64(sampled[w])/trials
			tol, err := stats.TwoProportionTolerance(pr, trials, ps, trials, 1e-6, len(settings)*n)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pr-ps) > tol {
				t.Errorf("%+v wire %d: replay addressable fraction %.4f, sampler %.4f, beyond ±%.4f",
					np, w, pr, ps, tol)
			}
		}
	}
}
