package readout

import (
	"context"
	"math"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

// TestReadRatiosMatchReadGroup pins the table-based trial read to the
// per-read API: on the same sampled thresholds, every ratio it produces
// must equal the OnCurrentRatio of ReadGroup (band-edge) or
// ReadGroupDualRail exactly, not within a tolerance. Base 3 makes the
// band-edge table three columns wide against the dual-rail table's two.
func TestReadRatiosMatchReadGroup(t *testing.T) {
	const trials = 3
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
						s := newSensor(tr, plan, q, dualRail)
						inv := make([]float64, len(s.gate))
						// One table serves every trial: read overwrites it.
						for i := range inv {
							inv[i] = math.NaN()
						}
						for trial := 0; trial < trials; trial++ {
							vt := plan.SampleVT(rng, sigmaT, q.VTOf)
							got := make([]float64, n)
							s.read(vt, inv, got)
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
								if r := got[i]; r != read.OnCurrentRatio {
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
// trial loop: the threshold arena, the conductance table and the chunk's
// substreams are allocated once per chunk of trials and the ratios once
// per round, never per trial. Both trial counts split into one round of
// the same number of chunks.
func TestMonteCarloAllocsIndependentOfTrials(t *testing.T) {
	plan, q := dualRailFixture(t, code.TypeGray, 8, 16)
	tr := DefaultTransistor()
	for _, d := range []struct {
		name string
		run  func(context.Context, Transistor, *mspt.Plan, *physics.Quantizer, float64, float64, int, *stats.Substreams, uint64, int) (*Study, error)
	}{
		{"band-edge", MonteCarlo},
		{"dual-rail", MonteCarloDualRail},
	} {
		allocs := func(trials int) float64 {
			sub := stats.NewRNG(1).Substreams()
			return testing.AllocsPerRun(5, func() {
				if _, err := d.run(context.Background(), tr, plan, q, 0.05, 0, trials, sub, 0, 1); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a40, a160 := allocs(40), allocs(160); a40 != a160 {
			t.Errorf("%s: %v allocs at 40 trials, %v at 160", d.name, a40, a160)
		}
	}
}

// TestMonteCarloWorkerCountInvisible pins the substream discipline: trial
// t draws substream first+t whichever block and worker runs it, so a
// study is bit-identical at every worker count, and first shifts the
// window it draws.
func TestMonteCarloWorkerCountInvisible(t *testing.T) {
	plan, q := dualRailFixture(t, code.TypeBalancedGray, 10, 20)
	tr := DefaultTransistor()
	sub := stats.NewRNG(13).Substreams()
	want, err := MonteCarlo(context.Background(), tr, plan, q, 0.05, 0, 37, sub, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := MonteCarlo(context.Background(), tr, plan, q, 0.05, 0, 37, sub, 11, workers)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("workers=%d: %+v, want %+v", workers, *got, *want)
		}
	}
	other, err := MonteCarlo(context.Background(), tr, plan, q, 0.05, 0, 37, sub, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *other == *want {
		t.Error("a shifted substream window gave the same study")
	}
}
