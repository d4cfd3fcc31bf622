package readout

import (
	"context"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

// TestReadRatiosMatchReadGroup pins the table-based trial loop to the
// per-read API: on the same sampled thresholds, every ratio it produces
// must equal the OnCurrentRatio of ReadGroup (band-edge) or
// ReadGroupDualRail exactly, not within a tolerance. Base 3 makes the
// band-edge table three columns wide against the dual-rail table's two.
func TestReadRatiosMatchReadGroup(t *testing.T) {
	const trials = 3
	ctx := context.Background()
	tr := DefaultTransistor()
	for _, base := range []int{2, 3} {
		q, err := physics.NewQuantizer(physics.DefaultPhysicalModel(), base, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := 10
		if base == 3 {
			m = 6
		}
		for _, tp := range []code.Type{code.TypeTree, code.TypeGray, code.TypeBalancedGray, code.TypeArrangedHot} {
			length := m
			if tp == code.TypeArrangedHot {
				length = 6
			}
			g, err := code.New(tp, base, length)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{8, 20} {
				plan, err := mspt.NewPlanFromGenerator(g, n, q, 0)
				if err != nil {
					t.Fatal(err)
				}
				patterns := plan.Pattern()
				for _, sigmaT := range []float64{0, 0.05, 0.2} {
					for _, dualRail := range []bool{false, true} {
						rng := stats.NewRNG(uint64(100*base + n))
						got, err := readRatios(ctx, tr, plan, q, sigmaT, trials, rng.Clone(), dualRail)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != trials*n {
							t.Fatalf("%d ratios, want %d", len(got), trials*n)
						}
						for trial := 0; trial < trials; trial++ {
							vt := plan.SampleVT(rng, sigmaT, q.VTOf)
							for i := range patterns {
								var read GroupReadout
								if dualRail {
									read, err = tr.ReadGroupDualRail(q, patterns, vt, i)
								} else {
									read, err = tr.ReadGroup(vt, addressVoltages(q, patterns[i]), i)
								}
								if err != nil {
									t.Fatal(err)
								}
								if r := got[trial*n+i]; r != read.OnCurrentRatio {
									t.Errorf("%v base %d N=%d σ=%g dualRail=%v trial %d wire %d: table ratio %v, ReadGroup %v",
										tp, base, n, sigmaT, dualRail, trial, i, r, read.OnCurrentRatio)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMonteCarloAllocsIndependentOfTrials pins the scratch reuse of the
// trial loop: the threshold arena, the conductance table and the ratio
// slice are allocated once per study, never per trial.
func TestMonteCarloAllocsIndependentOfTrials(t *testing.T) {
	plan, q := dualRailFixture(t, code.TypeGray, 8, 16)
	tr := DefaultTransistor()
	for _, d := range []struct {
		name string
		run  func(context.Context, Transistor, *mspt.Plan, *physics.Quantizer, float64, float64, int, *stats.RNG) (*Study, error)
	}{
		{"band-edge", MonteCarlo},
		{"dual-rail", MonteCarloDualRail},
	} {
		allocs := func(trials int) float64 {
			rng := stats.NewRNG(1)
			return testing.AllocsPerRun(5, func() {
				if _, err := d.run(context.Background(), tr, plan, q, 0.05, 0, trials, rng); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a10, a40 := allocs(10), allocs(40); a10 != a40 {
			t.Errorf("%s: %v allocs at 10 trials, %v at 40", d.name, a10, a40)
		}
	}
}
