package readout

import (
	"context"
	"fmt"
	"math"
	"slices"

	"nwdec/internal/code"
	"nwdec/internal/mspt"
	"nwdec/internal/par"
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
// ratio of each read. Trial t samples its thresholds from substream
// first+t of sub, and the trials run on the par pool with the given worker
// count (<= 0 means GOMAXPROCS), so the study is bit-identical at every
// worker count. It checks ctx once per trial and returns ctx's error once
// it is cancelled.
func MonteCarlo(ctx context.Context, t Transistor, plan *mspt.Plan, q *physics.Quantizer,
	sigmaT, minRatio float64, trials int, sub *stats.Substreams, first uint64, workers int) (*Study, error) {
	return monteCarlo(ctx, t, plan, q, sigmaT, minRatio, trials, sub, first, workers, false)
}

// monteCarlo is the study body shared by both drive schemes, MonteCarlo
// (band-edge) and MonteCarloDualRail: it validates the inputs, runs the
// trials on the par pool and summarizes their ratios.
func monteCarlo(ctx context.Context, t Transistor, plan *mspt.Plan, q *physics.Quantizer,
	sigmaT, minRatio float64, trials int, sub *stats.Substreams, first uint64, workers int, dualRail bool) (*Study, error) {
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
	n := plan.N()
	s := newSensor(t, plan, q, dualRail)
	// The trials run in rounds of at most preallocTrials, each on the par
	// pool. A round grows ratios by its trials' reads, and a chunk writes
	// each of its trials' reads in the trial's place, so the ratios stay
	// in trial order at every worker count, the study reserves memory only
	// for the trials it is about to run, and a chunk never materializes
	// more than a round's substreams. A chunk owns its threshold arena and
	// 1/G table; the sensor is read-only.
	var ratios []float64
	for lo := 0; lo < trials; lo += preallocTrials {
		hi := min(lo+preallocTrials, trials)
		at := len(ratios)
		ratios = slices.Grow(ratios, (hi-lo)*n)[:at+(hi-lo)*n]
		err := par.ForEachChunks(ctx, workers, hi-lo, 0, func(cctx context.Context, a, b int) error {
			vt := plan.NewVTArena()
			inv := make([]float64, len(s.gate))
			rngs := sub.Block(first+uint64(lo+a), b-a)
			for k := a; k < b; k++ {
				if err := cctx.Err(); err != nil {
					return err
				}
				plan.SampleVTInto(rngs[k-a], sigmaT, q.VTOf, vt)
				s.read(vt, inv, ratios[at+k*n:at+(k+1)*n])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
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

// preallocTrials bounds the trials whose ratios a study reserves at a
// time: every realistic study fits in one round, and a huge trial count
// from a request grows its ratios as it runs instead of reserving them
// all before the first ctx check.
const preallocTrials = 4096

// sensor is one study's read path: the plan's pattern and the gate
// voltage of every region under the drive scheme. It is read-only once
// built, so every trial block shares it.
//
// A region's gate sees only a few distinct voltages — under the band-edge
// drive the upper edge of each digit's band, under dual rail its matched
// or its mismatched rail — so a trial computes each region's 1/G once per
// voltage it can see, not once per read. A read then sums its wire's M
// table entries in region order, the exact sum WireConductance forms:
// every ratio equals ReadGroup's (or ReadGroupDualRail's) OnCurrentRatio
// on the same thresholds.
type sensor struct {
	t        Transistor
	pattern  []code.Word
	m        int
	dualRail bool
	// Each region has width table columns: digit c's band edge in column
	// c under the band-edge drive; the mismatched rail in column 0 and
	// the matched rail in column 1 under dual rail. gate is indexed
	// (k·M + j)·width + c for column c of region (k, j), and holds its
	// voltage; a trial's 1/G table has the same layout.
	width int
	gate  []float64
}

func newSensor(t Transistor, plan *mspt.Plan, q *physics.Quantizer, dualRail bool) *sensor {
	s := &sensor{t: t, pattern: plan.Pattern(), m: plan.M(), dualRail: dualRail, width: q.N()}
	if dualRail {
		s.width = 2
	}
	s.gate = make([]float64, plan.N()*s.m*s.width)
	for k, w := range s.pattern {
		for j, digit := range w {
			for c := 0; c < s.width; c++ {
				edge := c
				if dualRail {
					edge = digit - 1 + c
				}
				s.gate[(k*s.m+j)*s.width+c] = bandEdge(q, edge)
			}
		}
	}
	return s
}

// read writes to out, N long, the on/off current ratio of every wire's
// read on one trial's thresholds vt, in addressed-wire order. inv is the
// trial's 1/G table, len(gate) long; read overwrites it.
func (s *sensor) read(vt [][]float64, inv, out []float64) {
	t, pattern, gate := s.t, s.pattern, s.gate
	m, width, dualRail := s.m, s.width, s.dualRail
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
		out[i] = ratio
	}
}

// bandEdge returns the upper edge of digit d's threshold band, the gate
// voltage the band-edge drive applies for digit d; the dual-rail drive's
// low rail for a digit-d region is bandEdge(d-1).
func bandEdge(q *physics.Quantizer, d int) float64 {
	vmin, vmax := q.Window()
	spacing := (vmax - vmin) / float64(q.N())
	return vmin + float64(d+1)*spacing
}
