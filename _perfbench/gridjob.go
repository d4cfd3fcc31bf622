package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/dataset"
	"nwdec/internal/jobs"
	"nwdec/internal/obs"
	"nwdec/internal/sweep"
)

// grid-job: a designer sweeping the design space as a checkpointed job.
// The grid spans every family and length the paper evaluates and the
// scaling experiment's cave populations; the seed picks its 8 σ_T and 4
// margin values, so every seed evaluates 4,000 points in 125 chunks.
var (
	gridLengths = []int{4, 6, 8, 10, 12}
	gridWires   = []int{10, 16, 20, 26, 32}
)

// gridPage is how many chunks one Results call pages, as a poller would.
const gridPage = 10

// gridOf draws the seed's grid.
func gridOf(seed uint64) sweep.Grid {
	rng := rand.New(rand.NewPCG(seed, 0x5eed0010))
	sig := rng.Perm(81)[:8] // 20..100 mV
	sort.Ints(sig)
	mar := rng.Perm(13)[:4] // 0.70..1.30
	sort.Ints(mar)
	g := sweep.Grid{Types: code.AllTypes(), Lengths: gridLengths, HalfCaveWires: gridWires}
	for _, v := range sig {
		g.SigmaTs = append(g.SigmaTs, float64(20+v)/1000)
	}
	for _, v := range mar {
		g.MarginFactors = append(g.MarginFactors, float64(70+5*v)/100)
	}
	return g
}

// gridTuples lists the code tuples of the paper's design space: every
// family and length at every scaling-experiment cave population.
func gridTuples() []codeTuple {
	var out []codeTuple
	for _, tp := range code.AllTypes() {
		for _, l := range gridLengths {
			for _, n := range gridWires {
				out = append(out, codeTuple{tp, 2, l, n})
			}
		}
	}
	return out
}

type gridWorkload struct{}

type gridInstance struct {
	e    *env
	tr   *tracer
	reg  *obs.Registry
	spec jobs.Spec
	ref  []byte // JSON of the synchronous sweep of the grid

	regBase   map[string]float64
	ckptBytes samples // mean checkpoint file size of each pass
}

// gridPass is the timing of one pass.
type gridPass struct {
	points                  int
	submit, resume, results time.Duration
}

func (gridWorkload) tuples() []codeTuple { return gridTuples() }

func (gridWorkload) setup(ctx context.Context, e *env, tr *tracer, reg *obs.Registry) (instance, error) {
	grid := gridOf(e.cfg.seed)
	rows, err := sweep.RunWorkers(ctx, core.Config{}, grid, 0)
	if err != nil {
		return nil, err
	}
	ref, err := sweep.Dataset(rows).JSON()
	if err != nil {
		return nil, err
	}
	g := &gridInstance{e: e, tr: tr, reg: reg, spec: jobs.Spec{Grid: grid}, ref: ref}
	if _, err := g.pass(ctx); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return g, nil
}

// pass submits the grid to a fresh store, waits for it and closes the
// runner; then a second runner on the same store resumes the job and
// pages every chunk of its results. Both outputs are checked.
func (g *gridInstance) pass(ctx context.Context) (gridPass, error) {
	var p gridPass
	dir, err := os.MkdirTemp(g.e.cfg.work, "store-")
	if err != nil {
		return p, err
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(g.e.cfg.stderr, "perfbench: removing a job store: %v\n", err)
		}
	}()
	fsStore, err := jobs.NewFSStore(dir)
	if err != nil {
		return p, err
	}
	var store jobs.Store = fsStore
	var exec jobs.Executor
	if g.tr != nil {
		store = tracedStore{next: fsStore, tr: g.tr}
		exec = tracedExecutor{next: &jobs.LocalExecutor{}, tr: g.tr}
	}
	jctx := obs.Into(ctx, g.reg)
	opts := jobs.Options{Executor: exec}

	ph := g.tr.phase("job.submit")
	t0 := time.Now()
	first := jobs.NewRunner(store, opts)
	st, err := first.Submit(jctx, g.spec)
	if err == nil {
		st, err = first.Wait(ctx, st.ID)
	}
	p.submit = time.Since(t0)
	ph.end()
	if err != nil {
		first.Close()
		return p, err
	}
	p.points = st.Points
	page, err := first.Results(st.ID, 0, 0)
	first.Close()
	if err != nil {
		return p, err
	}
	if st.State != jobs.StateComplete || page.Dataset == nil {
		return p, fmt.Errorf("job ended %s with %d chunks of output", st.State, page.Count)
	}
	out, err := page.Dataset.JSON()
	if err != nil {
		return p, err
	}
	g.checkSame("job output", out, g.ref)

	ph = g.tr.phase("job.resume")
	t1 := time.Now()
	second := jobs.NewRunner(store, opts)
	defer second.Close()
	st, err = second.Resume(jctx, st.ID)
	if err == nil {
		st, err = second.Wait(ctx, st.ID)
	}
	p.resume = time.Since(t1)
	ph.end()
	if err != nil {
		return p, err
	}
	if st.State != jobs.StateComplete || st.Computed != 0 || st.Resumed != st.Chunks {
		g.e.fail("grid-job: resume ended %s, computed %d and resumed %d of %d chunks", st.State, st.Computed, st.Resumed, st.Chunks)
	}

	ph = g.tr.phase("job.results")
	t2 := time.Now()
	var parts []*dataset.Dataset
	for from := 0; ; {
		page, err := second.Results(st.ID, from, gridPage)
		if err != nil {
			ph.end()
			return p, err
		}
		if page.Count == 0 {
			break
		}
		parts = append(parts, page.Dataset)
		from += page.Count
	}
	p.results = time.Since(t2)
	ph.end()
	paged, err := dataset.Concat(parts...)
	if err != nil {
		return p, err
	}
	again, err := paged.JSON()
	if err != nil {
		return p, err
	}
	g.checkSame("resumed and paged output", again, out)
	g.ckptBytes = append(g.ckptBytes, checkpointBytes(dir, st.Chunks))
	return p, nil
}

// checkSame counts a failure unless got equals want byte for byte.
func (g *gridInstance) checkSame(what string, got, want []byte) {
	if !bytes.Equal(got, want) {
		g.e.fail("grid-job: %s differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
}

// checkpointBytes is the mean size of a store's files per chunk.
func checkpointBytes(dir string, chunks int) float64 {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	if err != nil {
		return 0
	}
	return ratio(float64(total), float64(chunks))
}

// measure runs passes for d. The gated metrics time the restarted
// runner (resume, then paging the results): the submit phase's file
// creations, renames and unlinks get several times slower over a minute
// of this workload's own churn on an ext4 disk, so its figures, printed
// as job.*, drift by more than any bound allows from run to run.
func (g *gridInstance) measure(ctx context.Context, d time.Duration, m *metrics) error {
	g.regBase = counters(g.reg)
	var submit, resume, results, restart samples
	points, submitSecs, restartSecs := 0, 0.0, 0.0
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		g.e.attempted.Add(1)
		p, err := g.pass(ctx)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err != nil {
			g.e.fail("grid-job: %v", err)
			restart.fail()
			continue
		}
		submit.add(p.submit)
		resume.add(p.resume)
		results.add(p.results)
		restart.add(p.resume + p.results)
		points = p.points
		submitSecs += p.submit.Seconds()
		restartSecs += (p.resume + p.results).Seconds()
	}
	// Throughput is the points the restarted runners delivered over all
	// their time, so stalled restarts, which the median ignores, lower it.
	m.timing("p50_ms", "ms", restart.median(), restart)
	m.set("throughput_per_s", "1/s", ratio(float64(points*len(submit)), restartSecs))
	m.set("job.points_per_s", "1/s", ratio(float64(points*len(submit)), submitSecs))
	m.timing("job.submit_s", "s", submit.median()/1000, submit)
	m.timing("job.resume_s", "s", resume.median()/1000, resume)
	m.timing("job.results_s", "s", results.median()/1000, results)
	return nil
}

func (g *gridInstance) check(context.Context) error { return nil }

func (g *gridInstance) close() {}

// layers derives the jobs, sweep and par metrics of the traced phase.
func (g *gridInstance) layers(m *metrics) {
	spans := g.tr.snapshot()
	self := selfTimes(spans)
	phaseOf := map[int64]string{}
	wall := map[string]time.Duration{}
	for i := range spans {
		if sp := &spans[i]; sp.Parent == 0 {
			phaseOf[sp.ID] = sp.Name
			wall[sp.Name] += sp.dur()
		}
	}
	store := map[string]time.Duration{}
	var exec, puts, misses, gets, leases samples
	points, chunks := 0, 0
	for i := range spans {
		sp := &spans[i]
		ph := phaseOf[sp.Parent]
		switch sp.Name {
		case "jobs.execute":
			exec.add(sp.dur())
			points += sp.N
			if ph == "job.submit" {
				chunks++
			}
		case "jobs.store":
			store[ph] += sp.dur()
			switch sp.Label {
			case "PutChunk":
				puts.add(sp.dur())
			case "GetChunk":
				if sp.Hit {
					gets.add(sp.dur())
				} else if !sp.Err {
					misses.add(sp.dur())
				}
			case "PutLease", "DeleteLease":
				leases.add(sp.dur())
			}
		}
	}
	m.timing("jobs.execute_ms", "ms", exec.mean(), exec)
	m.set("sweep.point_us", "us", ratio(exec.sum()*1000, float64(points)))
	m.timing("jobs.put_chunk_us", "us", puts.mean()*1000, puts)
	m.timing("jobs.get_chunk_miss_us", "us", misses.mean()*1000, misses)
	m.timing("jobs.lease_us", "us", leases.mean()*1000, leases)
	m.timing("jobs.get_chunk_us", "us", gets.mean()*1000, gets)
	m.set("jobs.checkpoint_bytes", "bytes", g.ckptBytes.mean())
	for _, ph := range []string{"submit", "resume", "results"} {
		name := "job." + ph
		m.set("jobs.store_share."+ph, "ratio", ratio(float64(store[name]), float64(wall[name])))
	}
	var runner time.Duration
	for id, name := range phaseOf {
		if name == "job.submit" {
			runner += self[id]
		}
	}
	m.set("jobs.runner_us_per_chunk", "us", ratio(float64(runner)/1e3, float64(chunks)))
	m.set("par.busy_ratio", "ratio", busyRatioDelta(g.reg, g.regBase))
}
