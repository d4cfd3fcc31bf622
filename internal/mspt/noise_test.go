package mspt

import (
	"math"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

func TestNoiseParamsValidate(t *testing.T) {
	if err := (NoiseParams{SigmaRandom: 0.05}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (NoiseParams{SigmaRandom: -1}).Validate(); err == nil {
		t.Error("negative random sigma accepted")
	}
	if err := (NoiseParams{SigmaSystematic: -1}).Validate(); err == nil {
		t.Error("negative systematic sigma accepted")
	}
}

func TestEffectiveSigma(t *testing.T) {
	np := NoiseParams{SigmaRandom: 0.03, SigmaSystematic: 0.04}
	if got := np.EffectiveSigma(1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("EffectiveSigma(1) = %g, want 0.05", got)
	}
	if got := np.EffectiveSigma(4); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("EffectiveSigma(4) = %g, want 0.1", got)
	}
	if np.EffectiveSigma(0) != 0 {
		t.Error("zero doses should have zero sigma")
	}
}

func TestCorrelatedReducesToIIDMarginals(t *testing.T) {
	// With SigmaSystematic = 0, the marginal std of each region must match
	// the i.i.d. model σ_T·sqrt(ν).
	p := mustPlan(t, paperTreePattern())
	q := physics.PaperExampleQuantizer()
	np := NoiseParams{SigmaRandom: 0.05}
	rng := stats.NewRNG(31)
	const trials = 4000
	var sum, sumSq float64
	i, j := 0, 1 // region with ν = 3
	for tr := 0; tr < trials; tr++ {
		vt := p.SampleVTCorrelated(rng, np, q.VTOf)
		d := vt[i][j] - q.VTOf(p.Pattern()[i][j])
		sum += d
		sumSq += d * d
	}
	mean := sum / trials
	std := math.Sqrt(sumSq/trials - mean*mean)
	want := 0.05 * math.Sqrt(3)
	if math.Abs(std-want)/want > 0.08 {
		t.Errorf("marginal std %g, want %g", std, want)
	}
}

func TestCorrelatedMarginalsMatchEffectiveSigma(t *testing.T) {
	p := mustPlan(t, paperGrayPattern())
	q := physics.PaperExampleQuantizer()
	np := NoiseParams{SigmaRandom: 0.03, SigmaSystematic: 0.04}
	rng := stats.NewRNG(37)
	const trials = 5000
	i, j := 1, 0 // ν = 2 in the Gray example
	var sumSq float64
	for tr := 0; tr < trials; tr++ {
		vt := p.SampleVTCorrelated(rng, np, q.VTOf)
		d := vt[i][j] - q.VTOf(p.Pattern()[i][j])
		sumSq += d * d
	}
	std := math.Sqrt(sumSq / trials)
	want := np.EffectiveSigma(p.Nu()[i][j])
	if math.Abs(std-want)/want > 0.08 {
		t.Errorf("marginal std %g, want %g", std, want)
	}
}

func TestSystematicNoiseCorrelatesSharedPasses(t *testing.T) {
	// Wires 0 and 1 share every pass from step 1 on; their common regions
	// must correlate strongly under a dominant systematic term, while an
	// independent-noise run stays near zero.
	p := mustPlan(t, paperGrayPattern())
	q := physics.PaperExampleQuantizer()

	strong := NoiseParams{SigmaRandom: 0.005, SigmaSystematic: 0.05}
	rng := stats.NewRNG(41)
	corr := p.PassCorrelationProbe(rng, strong, q.VTOf, 0, 2, 1, 2, 2000)
	if corr < 0.5 {
		t.Errorf("systematic correlation %g unexpectedly low", corr)
	}

	iid := NoiseParams{SigmaRandom: 0.05}
	rng = stats.NewRNG(43)
	corr = p.PassCorrelationProbe(rng, iid, q.VTOf, 0, 2, 1, 2, 2000)
	if math.Abs(corr) > 0.1 {
		t.Errorf("iid correlation %g unexpectedly high", corr)
	}
}

func TestPassCorrelationProbeDegenerate(t *testing.T) {
	p := mustPlan(t, paperTreePattern())
	q := physics.PaperExampleQuantizer()
	if got := p.PassCorrelationProbe(stats.NewRNG(1), NoiseParams{}, q.VTOf, 0, 0, 1, 1, 1); got != 0 {
		t.Errorf("degenerate probe = %g", got)
	}
}

func TestSampleVTCorrelatedIntoMatchesAllocating(t *testing.T) {
	// The paper example (base 3, compensation doses) and the noise study's
	// BGC M=10 half cave.
	q2, err := physics.NewQuantizer(physics.DefaultPhysicalModel(), 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := code.NewBalancedGray(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	bgc, err := NewPlanFromGenerator(g, 20, q2, 0)
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		p       *Plan
		nominal func(int) float64
	}{
		{mustPlan(t, paperGrayPattern()), physics.PaperExampleQuantizer().VTOf},
		{bgc, q2.VTOf},
	}
	for _, pc := range plans {
		for _, np := range []NoiseParams{
			{SigmaRandom: 0.05},
			{SigmaRandom: 0.03, SigmaSystematic: 0.04},
		} {
			rng := stats.NewRNG(59)
			dst := pc.p.NewVTArena()
			for trial := 0; trial < 4; trial++ {
				// Stale contents must be overwritten, not accumulated.
				for _, row := range dst {
					for j := range row {
						row[j] = math.NaN()
					}
				}
				ref := rng.Clone()
				want := pc.p.SampleVTCorrelated(ref, np, pc.nominal)
				pc.p.SampleVTCorrelatedInto(rng, np, pc.nominal, dst)
				for i := range want {
					for j := range want[i] {
						if dst[i][j] != want[i][j] {
							t.Fatalf("%+v trial %d: vt[%d][%d] = %v, want %v", np, trial, i, j, dst[i][j], want[i][j])
						}
					}
				}
				if a, b := rng.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("%+v trial %d: generators diverged after the draw", np, trial)
				}
			}
		}
	}
}

func TestSampleVTCorrelatedIntoAllocs(t *testing.T) {
	p := mustPlan(t, paperGrayPattern())
	nominal := physics.PaperExampleQuantizer().VTOf
	np := NoiseParams{SigmaRandom: 0.03, SigmaSystematic: 0.04}
	rng := stats.NewRNG(61)
	dst := p.NewVTArena()
	if allocs := testing.AllocsPerRun(100, func() {
		p.SampleVTCorrelatedInto(rng, np, nominal, dst)
	}); allocs > 1 {
		t.Errorf("SampleVTCorrelatedInto allocates %v times per call, want <= 1", allocs)
	}
}
