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

// samplerPlans are the sampler tests' plans: the paper example (base 3,
// compensation doses) and the noise study's BGC M=10 half cave.
func samplerPlans(t *testing.T) []struct {
	p       *Plan
	nominal func(int) float64
} {
	t.Helper()
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
	return []struct {
		p       *Plan
		nominal func(int) float64
	}{
		{mustPlan(t, paperGrayPattern()), physics.PaperExampleQuantizer().VTOf},
		{bgc, q2.VTOf},
	}
}

// TestSampleVTCorrelatedIntoIIDIsSampleVTInto pins the random part of the
// correlated sampler: without a systematic component it returns the bits
// SampleVTInto returns and leaves the generator where SampleVTInto does.
func TestSampleVTCorrelatedIntoIIDIsSampleVTInto(t *testing.T) {
	for _, pc := range samplerPlans(t) {
		rng := stats.NewRNG(67)
		got, want := pc.p.NewVTArena(), pc.p.NewVTArena()
		for trial := 0; trial < 4; trial++ {
			ref := rng.Clone()
			pc.p.SampleVTCorrelatedInto(rng, NoiseParams{SigmaRandom: 0.05}, pc.nominal, got)
			pc.p.SampleVTInto(ref, 0.05, pc.nominal, want)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("trial %d: vt[%d][%d] = %v, SampleVTInto %v", trial, i, j, got[i][j], want[i][j])
					}
				}
			}
			if a, b := rng.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("trial %d: generators diverged after the draw", trial)
			}
		}
	}
}

// TestSampleVTCorrelatedIntoOneOffsetPerPass pins the systematic part's
// structure: with no random component, the sampler makes exactly Φ
// ziggurat draws (one per pass), and going up a column a region differs
// from the one below it (or, on the last row, from nominal) by the offset
// of the pass that doses it on that row, shared by every region that pass
// doses, or by nothing where no pass doses it.
func TestSampleVTCorrelatedIntoOneOffsetPerPass(t *testing.T) {
	for _, pc := range samplerPlans(t) {
		p := pc.p
		rng := stats.NewRNG(71)
		ref := rng.Clone()
		vt := p.SampleVTCorrelated(rng, NoiseParams{SigmaSystematic: 0.04}, pc.nominal)
		for k := 0; k < p.Phi(); k++ {
			ref.NormFloat64Fast()
		}
		if a, b := rng.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("sampler did not make exactly Φ = %d draws", p.Phi())
		}
		pattern, s := p.Pattern(), p.S()
		dev := func(i, j int) float64 {
			if i == p.N() {
				return 0
			}
			return vt[i][j] - pc.nominal(pattern[i][j])
		}
		for i := 0; i < p.N(); i++ {
			offsets := map[int64]float64{}
			for j := 0; j < p.M(); j++ {
				step := dev(i, j) - dev(i+1, j)
				if s[i][j] == 0 {
					if math.Abs(step) > 1e-12 {
						t.Errorf("row %d column %d: no pass doses it, yet it moved by %g", i, j, step)
					}
					continue
				}
				if off, seen := offsets[s[i][j]]; seen && math.Abs(step-off) > 1e-12 {
					t.Errorf("row %d column %d: pass %+d offset %g, another region of it got %g", i, j, s[i][j], step, off)
				}
				offsets[s[i][j]] = step
			}
		}
	}
}

func TestSampleVTCorrelatedIntoMatchesAllocating(t *testing.T) {
	for _, pc := range samplerPlans(t) {
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
