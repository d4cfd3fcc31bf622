package readout

import (
	"context"
	"math"
	"testing"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

// serialSensable is the oracle of MonteCarlo's random discipline: the
// study as it ran before its trials moved onto substreams, every trial
// sampled in turn from one generator. It returns the sensable fraction.
func serialSensable(t Transistor, plan *mspt.Plan, q *physics.Quantizer, sigmaT float64,
	trials int, rng *stats.RNG, dualRail bool) float64 {
	s := newSensor(t, plan, q, dualRail)
	vt := plan.NewVTArena()
	inv := make([]float64, len(s.gate))
	ratios := make([]float64, plan.N())
	sensable := 0
	for tr := 0; tr < trials; tr++ {
		plan.SampleVTInto(rng, sigmaT, q.VTOf, vt)
		s.read(vt, inv, ratios)
		for _, r := range ratios {
			if r >= DefaultMinRatio {
				sensable++
			}
		}
	}
	return float64(sensable) / float64(trials*plan.N())
}

// TestSubstreamStudiesMatchSerialForks checks that the readout experiment's
// studies draw from the distribution they drew from before: each study's
// sensable fraction with trial t of study s on substream s·trials+t agrees
// with the fraction from the study's own forked generator, drawn serially,
// at a false-failure rate of 1e-6 for the whole test, Bonferroni-corrected
// over the 5 studies. A trial's reads share its thresholds, so the
// tolerance counts trials, not reads: a per-trial sensable fraction lies
// in [0, 1], so its variance is at most p(1−p) and the band stays valid.
func TestSubstreamStudiesMatchSerialForks(t *testing.T) {
	const trials = 20000
	studies := []struct {
		tp       code.Type
		m        int
		dualRail bool
	}{
		{code.TypeTree, 10, false},
		{code.TypeGray, 10, false},
		{code.TypeBalancedGray, 10, false},
		{code.TypeArrangedHot, 6, false},
		{code.TypeArrangedHot, 6, true},
	}
	tr := DefaultTransistor()
	forks := stats.NewRNG(31)
	sub := stats.NewRNG(37).Substreams()
	for i, st := range studies {
		d, err := core.NewDesign(core.Config{CodeType: st.tp, CodeLength: st.m})
		if err != nil {
			t.Fatal(err)
		}
		serial := serialSensable(tr, d.Plan, d.Quantizer, d.Config.SigmaT, trials, forks.Fork(), st.dualRail)
		run := MonteCarlo
		if st.dualRail {
			run = MonteCarloDualRail
		}
		study, err := run(context.Background(), tr, d.Plan, d.Quantizer, d.Config.SigmaT,
			DefaultMinRatio, trials, sub, uint64(i*trials), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := study.SensableFraction
		tol, err := stats.TwoProportionTolerance(serial, trials, got, trials, 1e-6, len(studies))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(serial-got) > tol {
			t.Errorf("%v M=%d dual-rail=%v: serial sensable fraction %.4f, substreams %.4f, beyond ±%.4f",
				st.tp, st.m, st.dualRail, serial, got, tol)
		}
	}
}
