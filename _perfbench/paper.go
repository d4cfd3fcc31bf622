package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nwdec/internal/cli"
	"nwdec/internal/code"
	"nwdec/internal/dataset"
	"nwdec/internal/engine"
	"nwdec/internal/obs"
)

// paper: a researcher re-running the paper with nwsim. Each pass is one
// nwsim run: a fresh engine (so every request misses), every experiment
// at nwsim's defaults, and the text rendering.
const paperTrials = 4

// paperGoldens are the experiments whose JSON is pinned by the
// repository's golden files; they do not depend on the MC seed.
var paperGoldens = []string{"fig5", "fig7", "fig8", "headline"}

type paperWorkload struct{}

type paperInstance struct {
	e      *env
	tr     *tracer
	reg    *obs.Registry
	names  []string
	golden map[string][]byte
	buf    bytes.Buffer

	regBase map[string]float64
}

// tuples lists the paper's design space, as the grid-job does, and the
// ternary codes of the model experiment.
func (paperWorkload) tuples() []codeTuple {
	out := gridTuples()
	for _, tp := range []code.Type{code.TypeTree, code.TypeGray, code.TypeBalancedGray} {
		out = append(out, codeTuple{tp, 3, 6, 10})
	}
	return out
}

func (paperWorkload) setup(ctx context.Context, e *env, tr *tracer, reg *obs.Registry) (instance, error) {
	p := &paperInstance{e: e, tr: tr, reg: reg, names: engine.ExperimentNames(), golden: map[string][]byte{}}
	for _, name := range paperGoldens {
		data, err := os.ReadFile(filepath.Join(e.cfg.root, "internal", "experiments", "testdata", name+".json"))
		if err != nil {
			return nil, err
		}
		p.golden[name] = data
	}
	_, times, err := p.pass(ctx)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if e.cold == nil {
		e.cold = times
	}
	return p, nil
}

// pass runs every experiment on a fresh engine and renders the text as
// nwsim does; it returns the pass time and each experiment's time, and
// checks the outputs after the clock stops.
func (p *paperInstance) pass(ctx context.Context) (time.Duration, map[string]float64, error) {
	ctx, root := p.tr.request(obs.Into(ctx, p.reg), "paper.pass")
	t0 := time.Now()
	eng, err := engine.New(engine.Options{})
	if err != nil {
		root.end()
		return 0, nil, err
	}
	var b engine.Backend = eng
	if p.tr != nil {
		b = tracedBackend{next: eng, tr: p.tr}
	}
	times := make(map[string]float64, len(p.names))
	dss := make([]*dataset.Dataset, 0, len(p.names))
	for _, name := range p.names {
		te := time.Now()
		resp, err := b.Handle(ctx, engine.Request{Kind: engine.KindExperiment, Experiment: name, Seed: p.e.cfg.seed, Trials: paperTrials})
		if err != nil {
			root.end()
			return 0, nil, fmt.Errorf("%s: %w", name, err)
		}
		times[name] = ms(time.Since(te))
		dss = append(dss, resp.Dataset)
	}
	_, rs := p.tr.begin(ctx, "dataset.text", layerDataset)
	p.buf.Reset()
	err = cli.RenderAll(&p.buf, dataset.FormatText, dss)
	rs.end()
	d := time.Since(t0)
	root.end()
	if err != nil {
		return 0, nil, err
	}
	p.verify(dss, p.buf.Bytes())
	return d, times, nil
}

// verify checks a pass's output: the golden experiments' JSON equals the
// repository's golden files, and every other experiment's JSON and the
// whole text output equal the run's first pass.
func (p *paperInstance) verify(dss []*dataset.Dataset, text []byte) {
	for i, ds := range dss {
		name := p.names[i]
		js, err := ds.JSON()
		if err != nil {
			p.e.fail("paper: %s: %v", name, err)
			continue
		}
		if want, ok := p.golden[name]; ok {
			if !bytes.Equal(js, want) {
				p.e.fail("paper: %s JSON differs from its golden file", name)
			}
			continue
		}
		p.e.same("paper: "+name+" JSON", js)
	}
	p.e.same("paper: text output", text)
}

// same counts a failure unless data hashes the same as the first data
// recorded under key in this run.
func (e *env) same(key string, data []byte) {
	sum := sha256.Sum256(data)
	if e.expect == nil {
		e.expect = map[string][32]byte{}
	}
	if want, ok := e.expect[key]; !ok {
		e.expect[key] = sum
	} else if want != sum {
		e.fail("%s differs from the first pass", key)
	}
}

func (p *paperInstance) measure(ctx context.Context, d time.Duration, m *metrics) error {
	p.regBase = counters(p.reg)
	var passes samples
	var busy time.Duration
	done := 0
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		p.e.attempted.Add(1)
		pd, _, err := p.pass(ctx)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err != nil {
			p.e.fail("paper: %v", err)
			passes.fail()
			continue
		}
		passes.add(pd)
		busy += pd
		done++
	}
	// Throughput is the experiments of every completed pass over all their
	// time, so stalled passes, which the median ignores, lower it.
	m.timing("p50_ms", "ms", passes.median(), passes)
	m.set("throughput_per_s", "1/s", ratio(float64(done*len(p.names)), busy.Seconds()))
	m.timing("paper.pass_s", "s", passes.median()/1000, passes)
	return nil
}

func (p *paperInstance) check(context.Context) error { return nil }

func (p *paperInstance) close() {}

// layers derives the experiments, engine, dataset, crossbar and par
// metrics of the traced phase.
func (p *paperInstance) layers(m *metrics) {
	spans := p.tr.snapshot()
	var all samples
	hits := 0
	for _, name := range p.names {
		label := "experiment/" + name
		s := spanSamples(spans, func(sp *span) bool { return sp.Name == "engine.handle" && sp.Label == label })
		m.timing("experiments."+name+"_ms", "ms", s.mean(), s)
		all = append(all, s...)
		if name == "montecarlo" {
			trials := delta(p.reg, p.regBase, "montecarlo/trials|counter")
			m.set("crossbar.mc_trial_us", "us", ratio(s.sum()*1000, trials))
		}
	}
	for i := range spans {
		if spans[i].Name == "engine.handle" && spans[i].Hit {
			hits++
		}
	}
	m.set("engine.cache_hit_ratio", "ratio", ratio(float64(hits), float64(len(all))))
	m.timing("engine.miss_ms.experiment", "ms", all.mean(), all)
	for _, name := range p.names {
		m.set("experiments.cold."+name+"_ms", "ms", p.e.cold[name])
	}
	text := spanSamples(spans, func(sp *span) bool { return sp.Name == "dataset.text" })
	m.timing("dataset.text_us", "us", text.mean()*1000, text)
	m.set("par.busy_ratio", "ratio", busyRatioDelta(p.reg, p.regBase))
}
