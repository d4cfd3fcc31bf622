package readout

import (
	"context"
	"fmt"
	"math"

	"nwdec/internal/mspt"
	"nwdec/internal/physics"
	"nwdec/internal/stats"
)

// DefaultMinRatio is the on/off current ratio a simple sense amplifier
// needs to distinguish the addressed wire from the group leakage.
const DefaultMinRatio = 10

// Study is the Monte-Carlo sensing analysis of one decoder plan.
type Study struct {
	// SensableFraction is the fraction of (trial, wire) reads with an
	// on/off ratio at or above the criterion.
	SensableFraction float64
	// Ratios summarizes the observed on/off current ratios.
	Ratios stats.Summary
	// Trials is the number of fabricated half-cave instances.
	Trials int
	// MinRatio is the applied criterion.
	MinRatio float64
}

// MonteCarlo runs the sensing analysis: it fabricates the half cave trials
// times (sampling thresholds with per-dose deviation sigmaT), addresses
// every wire through the band-edge voltages, and scores the analog on/off
// ratio of each read. It checks ctx once per trial and returns ctx's error
// once it is cancelled.
func MonteCarlo(ctx context.Context, t Transistor, plan *mspt.Plan, q *physics.Quantizer,
	sigmaT, minRatio float64, trials int, rng *stats.RNG) (*Study, error) {
	return monteCarlo(ctx, t, plan, q, sigmaT, minRatio, trials, rng, false)
}

// monteCarlo is the study body shared by both drive schemes, MonteCarlo
// (band-edge) and MonteCarloDualRail: it validates the inputs and
// summarizes the ratios readRatios samples.
func monteCarlo(ctx context.Context, t Transistor, plan *mspt.Plan, q *physics.Quantizer,
	sigmaT, minRatio float64, trials int, rng *stats.RNG, dualRail bool) (*Study, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if plan.Base() != q.N() {
		return nil, fmt.Errorf("readout: plan base %d does not match quantizer levels %d", plan.Base(), q.N())
	}
	if trials <= 0 {
		return nil, fmt.Errorf("readout: non-positive trial count %d", trials)
	}
	if minRatio <= 0 {
		minRatio = DefaultMinRatio
	}
	ratios, err := readRatios(ctx, t, plan, q, sigmaT, trials, rng, dualRail)
	if err != nil {
		return nil, err
	}
	sensable := 0
	for _, r := range ratios {
		if r >= minRatio {
			sensable++
		}
	}
	return &Study{
		SensableFraction: float64(sensable) / float64(len(ratios)),
		Ratios:           stats.Summarize(ratios),
		Trials:           trials,
		MinRatio:         minRatio,
	}, nil
}

// preallocTrials bounds the trials whose ratios readRatios reserves up
// front: every realistic study fits, and a huge trial count from a request
// grows its slice as it runs instead of reserving it all before the first
// ctx check.
const preallocTrials = 4096

// readRatios fabricates the half cave trials times and returns the on/off
// current ratio of every read, trial-major, then in addressed-wire order.
//
// A region's gate sees only a few distinct voltages — under the band-edge
// drive the upper edge of each digit's band, under dual rail its matched
// or its mismatched rail — so a trial computes each region's 1/G once per
// voltage it can see, not once per read. A read then sums its wire's M
// table entries in region order, the exact sum WireConductance forms:
// every ratio equals ReadGroup's (or ReadGroupDualRail's) OnCurrentRatio
// on the same thresholds.
func readRatios(ctx context.Context, t Transistor, plan *mspt.Plan, q *physics.Quantizer,
	sigmaT float64, trials int, rng *stats.RNG, dualRail bool) ([]float64, error) {
	pattern := plan.Pattern()
	n, m := plan.N(), plan.M()
	// Each region has width table columns: digit c's band edge in column c
	// under the band-edge drive; the mismatched rail in column 0 and the
	// matched rail in column 1 under dual rail. gate and inv are indexed
	// (k·M + j)·width + c for column c of region (k, j): gate holds its
	// voltage, inv the trial's 1/G at that voltage.
	width := q.N()
	if dualRail {
		width = 2
	}
	gate := make([]float64, n*m*width)
	inv := make([]float64, len(gate))
	for k, w := range pattern {
		for j, digit := range w {
			for c := 0; c < width; c++ {
				edge := c
				if dualRail {
					edge = digit - 1 + c
				}
				gate[(k*m+j)*width+c] = bandEdge(q, edge)
			}
		}
	}
	vt := plan.NewVTArena()
	out := make([]float64, 0, min(trials, preallocTrials)*n)
	for tr := 0; tr < trials; tr++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan.SampleVTInto(rng, sigmaT, q.VTOf, vt)
		for k, row := range vt {
			for j, v := range row {
				at := (k*m + j) * width
				for c := at; c < at+width; c++ {
					inv[c] = 1 / t.Conductance(gate[c], v)
				}
			}
		}
		for i, addr := range pattern {
			var on, leakSum float64
			for k, own := range pattern {
				sum := 0.0
				for j, digit := range addr {
					c := digit
					if dualRail {
						c = 0
						if own[j] == digit {
							c = 1
						}
					}
					sum += inv[(k*m+j)*width+c]
				}
				g := math.Inf(1)
				if sum != 0 {
					g = 1 / sum
				}
				if k == i {
					on = g
					continue
				}
				leakSum += g
			}
			ratio := math.Inf(1)
			if leakSum != 0 {
				ratio = on / leakSum
			}
			out = append(out, ratio)
		}
	}
	return out, nil
}

// bandEdge returns the upper edge of digit d's threshold band, the gate
// voltage the band-edge drive applies for digit d; the dual-rail drive's
// low rail for a digit-d region is bandEdge(d-1).
func bandEdge(q *physics.Quantizer, d int) float64 {
	vmin, vmax := q.Window()
	spacing := (vmax - vmin) / float64(q.N())
	return vmin + float64(d+1)*spacing
}
