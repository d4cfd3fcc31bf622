package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/obs"
)

// Zero-value Runner defaults. A zero Runner is ready to use: Run applies
// these whenever the corresponding field is zero.
const (
	// DefaultMCTrials is the Monte-Carlo repetition count of the validation
	// experiment (the noise and readout studies scale it up).
	DefaultMCTrials = 4
	// DefaultSeed drives every stochastic experiment.
	DefaultSeed uint64 = 2009
)

// The Monte-Carlo experiments scale the Runner's MCTrials: noise runs
// noiseTrialScale trials per MC trial in each of its two halves, on
// substreams up to 2·noiseTrialScale·MCTrials, and readout runs
// readoutTrialScale per study, on substreams up to
// len(readoutStudies)·readoutTrialScale·MCTrials.
const (
	noiseTrialScale   = 50
	readoutTrialScale = 15
)

// MaxMCTrials is the largest MCTrials whose derived counts and substream
// indices, the largest being the noise study's 2·noiseTrialScale·MCTrials,
// all fit in an int. A larger count would wrap, and the experiments would
// run, or label their output with, some other count; the engine refuses
// requests above it as invalid.
const MaxMCTrials = math.MaxInt / (2 * noiseTrialScale)

// Runner executes named experiments and returns their structured datasets.
// The zero value is ready to use: a zero Cfg selects the paper's default
// platform, zero MCTrials and Seed select DefaultMCTrials and DefaultSeed,
// and zero Workers selects GOMAXPROCS.
type Runner struct {
	// Cfg is the base platform configuration shared by all experiments.
	Cfg core.Config
	// MCTrials is the Monte-Carlo repetition count for the validation
	// experiment (0 = DefaultMCTrials).
	MCTrials int
	// Seed drives the stochastic experiments (0 = DefaultSeed).
	Seed uint64
	// Workers bounds the worker pool of every parallelized experiment
	// (0 = GOMAXPROCS, 1 = serial). Experiment output is bit-identical at
	// every worker count.
	Workers int
}

// effective returns a copy of the Runner with the zero-value defaults
// applied, so the registry entries never re-implement them.
func (r *Runner) effective() Runner {
	e := *r
	if e.MCTrials <= 0 {
		e.MCTrials = DefaultMCTrials
	}
	if e.Seed == 0 {
		e.Seed = DefaultSeed
	}
	return e
}

// experimentSpec is one registry entry: the canonical experiment name and
// the function producing its dataset. Names() and Run() both derive from
// the registry, so they cannot drift apart.
type experimentSpec struct {
	name string
	run  func(ctx context.Context, r Runner) (*dataset.Dataset, error)
}

// registry lists every experiment in presentation order: first the paper's
// figures, then the reproduction's ablations and extensions.
var registry = []experimentSpec{
	{"fig5", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		rows, err := Fig5(Fig5N)
		if err != nil {
			return nil, err
		}
		return Fig5Dataset(rows), nil
	}},
	{"fig6", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		surfaces, err := Fig6Workers(ctx, Fig6N, []int{8, 10}, r.Workers)
		if err != nil {
			return nil, err
		}
		return Fig6Dataset(surfaces), nil
	}},
	{"fig6hot", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		surfaces, err := Fig6HotWorkers(ctx, Fig6N, []int{6, 8}, r.Workers)
		if err != nil {
			return nil, err
		}
		return Fig6HotDataset(surfaces), nil
	}},
	{"fig7", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := Fig7Workers(ctx, r.Cfg, r.Workers)
		if err != nil {
			return nil, err
		}
		return Fig7Dataset(points), nil
	}},
	{"fig8", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := Fig8Workers(ctx, r.Cfg, r.Workers)
		if err != nil {
			return nil, err
		}
		return Fig8Dataset(points), nil
	}},
	{"headline", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		claims, err := HeadlineWorkers(ctx, r.Cfg, r.Workers)
		if err != nil {
			return nil, err
		}
		return HeadlineDataset(claims), nil
	}},
	{"montecarlo", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := MonteCarloWorkers(ctx, r.Cfg, r.MCTrials, r.Seed, r.Workers)
		if err != nil {
			return nil, err
		}
		return MonteCarloDataset(points, r.Seed), nil
	}},
	{"arrangement", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := AblationArrangementWorkers(ctx, []uint64{1, 2, 3}, r.Workers)
		if err != nil {
			return nil, err
		}
		return AblationArrangementDataset(points), nil
	}},
	{"margin", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := AblationMarginWorkers(ctx, []float64{0.4, 0.6, 0.8, 1.0}, r.Workers)
		if err != nil {
			return nil, err
		}
		return AblationMarginDataset(points), nil
	}},
	{"model", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		rows, err := AblationModelWorkers(ctx, r.Workers)
		if err != nil {
			return nil, err
		}
		return AblationModelDataset(rows), nil
	}},
	{"boundary", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := AblationBoundaryWorkers(ctx, []int{0, 1, 2, 4}, r.Workers)
		if err != nil {
			return nil, err
		}
		return AblationBoundaryDataset(points), nil
	}},
	{"multivalued", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := MultiValued(r.Cfg)
		if err != nil {
			return nil, err
		}
		return MultiValuedDataset(points), nil
	}},
	{"scaling", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := Scaling(r.Cfg, []int{10, 16, 20, 26, 32})
		if err != nil {
			return nil, err
		}
		return ScalingDataset(points), nil
	}},
	{"noise", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		res, err := NoiseStudyWorkers(ctx, r.Cfg, r.MCTrials*noiseTrialScale, r.Seed, r.Workers)
		if err != nil {
			return nil, err
		}
		return NoiseStudyDataset(res, r.Seed), nil
	}},
	{"readout", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := ReadoutWorkers(ctx, r.Cfg, r.MCTrials*readoutTrialScale, r.Seed, r.Workers)
		if err != nil {
			return nil, err
		}
		return ReadoutDataset(points, r.MCTrials*readoutTrialScale, r.Seed), nil
	}},
	{"temperature", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := Temperature(r.Cfg, nil)
		if err != nil {
			return nil, err
		}
		return TemperatureDataset(points), nil
	}},
	{"optarrange", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := OptArrange(nil, 20000)
		if err != nil {
			return nil, err
		}
		return OptArrangeDataset(points), nil
	}},
	{"masks", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := Masks(r.Cfg)
		if err != nil {
			return nil, err
		}
		return MasksDataset(points), nil
	}},
	{"spares", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := Spares(r.Cfg)
		if err != nil {
			return nil, err
		}
		return SparesDataset(points), nil
	}},
	{"sneak", func(ctx context.Context, r Runner) (*dataset.Dataset, error) {
		points, err := Sneak(nil)
		if err != nil {
			return nil, err
		}
		return SneakDataset(points), nil
	}},
}

// aliases maps alternative spellings to canonical registry names.
var aliases = map[string]string{"mc": "montecarlo"}

// Names lists the available experiment names in presentation order.
func (r *Runner) Names() []string {
	names := make([]string, len(registry))
	for i, spec := range registry {
		names[i] = spec.name
	}
	return names
}

// Known reports whether name resolves to a registry experiment under the
// same normalization Run applies (case, surrounding space, aliases).
func (r *Runner) Known(name string) bool {
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	for _, spec := range registry {
		if spec.name == key {
			return true
		}
	}
	return false
}

// Run executes one experiment by name and returns its structured dataset.
// The dataset's metadata records the canonical experiment name, the
// effective seed/worker settings and a fingerprint of the platform
// configuration. Cancelling ctx aborts the experiment with ctx's error;
// a context that is already cancelled refuses to start any experiment,
// including the serial entries that never poll ctx themselves.
func (r *Runner) Run(ctx context.Context, name string) (*dataset.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	eff := r.effective()
	for _, spec := range registry {
		if spec.name != key {
			continue
		}
		// Observability: count the run and span its wall time. The metrics
		// live beside the pipeline (stderr/file at the command boundary),
		// never inside it, so the dataset below stays byte-identical
		// whether or not a registry is installed.
		reg := obs.From(ctx)
		reg.Counter("experiments/runs").Add(1)
		reg.Counter("experiments/" + spec.name + "/runs").Add(1)
		span := reg.StartSpan("experiment/" + spec.name)
		ds, err := spec.run(ctx, eff)
		span.End()
		if err != nil {
			return nil, err
		}
		ds.Meta.Experiment = spec.name
		ds.Meta.ConfigHash = eff.Cfg.Fingerprint()
		return ds, nil
	}
	known := r.Names()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s, all)", name, strings.Join(known, ", "))
}
