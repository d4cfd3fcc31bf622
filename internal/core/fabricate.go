package core

import (
	"context"
	"fmt"

	"nwdec/internal/crossbar"
	"nwdec/internal/obs"
	"nwdec/internal/par"
	"nwdec/internal/stats"
)

// Decoder returns the functional decoder of the design, for use with the
// crossbar simulator.
func (d *Design) Decoder() (*crossbar.Decoder, error) {
	return crossbar.NewDecoder(d.Plan, d.Quantizer)
}

// FabricateWorkers builds one Monte-Carlo instance of the designed crossbar
// memory: both layers are fabricated with the design's variability and the
// layout's contact partition. The layer builds run on the par pool with the
// given worker count (<= 0 means GOMAXPROCS) and stop when ctx is cancelled.
// The memory is bit-identical at every worker count for the same rng state.
func (d *Design) FabricateWorkers(ctx context.Context, rng *stats.RNG, workers int) (*crossbar.Memory, error) {
	dec, err := d.Decoder()
	if err != nil {
		return nil, err
	}
	rows, err := crossbar.BuildLayerWorkers(ctx, dec, d.Layout.Contact, d.Layout.WiresPerLayer, d.Config.SigmaT, rng, workers)
	if err != nil {
		return nil, err
	}
	cols, err := crossbar.BuildLayerWorkers(ctx, dec, d.Layout.Contact, d.Layout.WiresPerLayer, d.Config.SigmaT, rng, workers)
	if err != nil {
		return nil, err
	}
	return crossbar.NewMemory(rows, cols), nil
}

// MonteCarloYieldWorkers measures the mean usable crosspoint fraction over
// trials independent fabrications — the empirical counterpart of the
// analytic Y² — on the par pool with the given worker count (<= 0 means
// GOMAXPROCS). Each trial fabricates from its own jump substream of the seed
// and the mean is reduced in trial order, so the result is bit-identical at
// every worker count. Trials are scheduled in contiguous chunks, and each
// chunk materializes only its own block of substreams through the lazy
// fan-out — no worker count pays the up-front cost of jumping out all trials
// eagerly. Cancelling ctx abandons unfinished trials and returns ctx's
// error.
func (d *Design) MonteCarloYieldWorkers(ctx context.Context, trials int, seed uint64, workers int) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("core: non-positive trial count %d", trials)
	}
	reg := obs.From(ctx)
	span := reg.StartSpan("core/montecarlo_yield")
	defer span.End()
	reg.Counter("core/montecarlo_yield/trials").Add(int64(trials))
	sub := stats.NewRNG(seed).Substreams()
	fracs := make([]float64, trials)
	err := par.ForEachChunks(ctx, workers, trials, 0,
		func(cctx context.Context, lo, hi int) error {
			rngs := sub.Block(uint64(lo), hi-lo)
			for t := lo; t < hi; t++ {
				if err := cctx.Err(); err != nil {
					return err
				}
				// Caves stay serial inside a trial: the trial fan-out
				// already saturates the pool.
				mem, err := d.FabricateWorkers(cctx, rngs[t-lo], 1)
				if err != nil {
					return err
				}
				fracs[t] = mem.UsableFraction()
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, f := range fracs {
		sum += f
	}
	return sum / float64(trials), nil
}
