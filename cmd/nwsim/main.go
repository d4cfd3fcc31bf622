// Command nwsim regenerates the paper's evaluation: every figure of Sec. 6
// plus the headline summary and a Monte-Carlo validation of the statistical
// platform.
//
// Usage:
//
//	nwsim [-exp fig5|fig6|fig7|fig8|headline|montecarlo|all]
//	      [-wires N] [-rawbits D] [-sigma V] [-margin F] [-trials T] [-seed S]
//	      [-workers W] [-format text|json|csv|md] [-timeout D]
//	      [-metrics text|json|csv|md] [-metrics-out FILE] [-pprof DIR]
//
// Parallelized experiments run on W workers (0 = GOMAXPROCS); their output
// is bit-identical at every worker count. -format selects the rendering of
// the experiment dataset; -timeout cancels the run's context after the
// given duration. -metrics renders an observability snapshot (worker task
// counts, per-experiment span times, trial counters) on exit — to stderr
// or the -metrics-out file, so stdout stays byte-identical — and -pprof
// captures CPU/heap profiles plus an execution trace into a directory.
//
// -markdown renders every experiment as one Markdown report instead; it
// refuses -exp and -format, which would contradict it.
//
// Experiments, the -markdown report's sections included, are submitted
// through the internal/engine serving layer, which validates every request
// the same way; a repeated experiment within one invocation (or one
// nwserve process) is served from the result cache.
package main

import (
	"flag"
	"fmt"

	"nwdec/internal/cli"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/experiments"
	"nwdec/internal/report"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: fig5, fig6, fig7, fig8, headline, montecarlo, all")
		wires   = flag.Int("wires", 0, "nanowires per half cave (default: paper platform, 20)")
		rawBits = flag.Int("rawbits", 0, "raw crosspoint count D_RAW (default 16384)")
		sigma   = flag.Float64("sigma", 0, "per-dose threshold deviation in volts (default 0.05)")
		margin  = flag.Float64("margin", 0, "margin factor relative to half the level spacing (default 1.0)")
		trials  = flag.Int("trials", experiments.DefaultMCTrials, "Monte-Carlo repetitions for the validation experiment")
		seed    = flag.Uint64("seed", experiments.DefaultSeed, "Monte-Carlo seed")
		md      = flag.Bool("markdown", false, "emit the full reproduction report as Markdown instead")
	)
	c := cli.Register("nwsim", "text")
	flag.Parse()
	if *md {
		// The report is every experiment, rendered as Markdown: a flag
		// that picks one experiment or another format contradicts it.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "exp" || f.Name == "format" {
				c.Usage(fmt.Errorf("-markdown renders the whole report as Markdown; it takes no -%s", f.Name))
			}
		})
	}
	ctx, cancel := c.Context()
	defer cancel()
	defer c.Close()

	spec, err := cli.Spec(*wires, *rawBits)
	if err != nil {
		c.Exit(err)
	}
	var cfg core.Config
	if spec.RawBits != 0 {
		// An overridden crossbar resolves the whole default platform;
		// the output's config hash records that.
		cfg = cfg.WithDefaults()
		cfg.Spec = spec
	}
	cfg.SigmaT = *sigma
	cfg.MarginFactor = *margin

	eng, err := engine.New(engine.Options{})
	if err != nil {
		c.Exit(err)
	}
	req := engine.Request{
		Kind:    engine.KindExperiment,
		Config:  cfg,
		Seed:    *seed,
		Trials:  *trials,
		Workers: c.Workers,
	}
	if *md {
		out, err := report.Generate(ctx, eng, req)
		if err != nil {
			c.Exit(err)
		}
		fmt.Print(out)
		return
	}
	if *exp == "all" {
		names := engine.ExperimentNames()
		dss := make([]*dataset.Dataset, 0, len(names))
		for _, name := range names {
			req.Experiment = name
			resp, err := eng.Do(ctx, req)
			if err != nil {
				c.Exit(fmt.Errorf("experiments: %s: %w", name, err))
			}
			dss = append(dss, resp.Dataset)
		}
		c.EmitAll(dss)
		return
	}
	req.Experiment = *exp
	resp, err := eng.Do(ctx, req)
	if err != nil {
		c.Exit(err)
	}
	c.Emit(resp.Dataset)
}
