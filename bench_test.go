// Package nwdec's root benchmark harness regenerates every figure of the
// paper's evaluation as a benchmark (one per table/figure), plus
// micro-benchmarks for the core pipeline stages. Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN times a full regeneration of the corresponding figure's
// data; the rendered reports themselves come from cmd/nwsim.
package nwdec

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"

	"nwdec/internal/cluster"
	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/crossbar"
	"nwdec/internal/engine"
	"nwdec/internal/experiments"
	"nwdec/internal/geometry"
	"nwdec/internal/jobs"
	"nwdec/internal/mspt"
	"nwdec/internal/par"
	"nwdec/internal/physics"
	"nwdec/internal/report"
	"nwdec/internal/stats"
	"nwdec/internal/sweep"
	"nwdec/internal/yield"
)

// BenchmarkFig5 regenerates the fabrication-complexity comparison (Fig. 5):
// Φ for tree vs Gray codes in binary, ternary and quaternary logic, N=10.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(experiments.Fig5N)
		if err != nil {
			b.Fatal(err)
		}
		if experiments.Fig5GraySaving(rows) <= 0 {
			b.Fatal("Gray saving lost")
		}
	}
}

// BenchmarkFig6 regenerates the variability surfaces (Fig. 6): sqrt(Σ)/σ_T
// for binary TC/GC/BGC at code lengths 8 and 10, N=20.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		surfaces, err := experiments.Fig6Workers(context.Background(), experiments.Fig6N, []int{8, 10}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(surfaces) != 6 {
			b.Fatal("wrong surface count")
		}
	}
}

// BenchmarkFig7 regenerates the crossbar-yield sweep (Fig. 7): TC vs BGC
// over lengths 6/8/10 and HC vs AHC over 4/6/8 on the 16 kbit platform.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7Workers(context.Background(), core.Config{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 12 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkFig8 regenerates the bit-area sweep (Fig. 8): all five code
// families over their length grids.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8Workers(context.Background(), core.Config{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 15 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkHeadline regenerates the paper's headline summary table
// (abstract/conclusion numbers).
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		claims, err := experiments.HeadlineWorkers(context.Background(), core.Config{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(claims) != 6 {
			b.Fatal("wrong claim count")
		}
	}
}

// BenchmarkMonteCarloValidation times the functional-simulator validation:
// full 128x128 crossbar fabrications compared against the analytic model.
func BenchmarkMonteCarloValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MonteCarloWorkers(context.Background(), core.Config{}, 1, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloScaling runs the validation experiment at fixed worker
// counts (4 trials per design point, so the pool has 12 independent units to
// schedule). The output is bit-identical at every worker count; only the
// wall clock and the scheduling overhead move.
func BenchmarkMonteCarloScaling(b *testing.B) {
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := experiments.MonteCarloWorkers(context.Background(), core.Config{}, 4, 1, w)
				if err != nil {
					b.Fatal(err)
				}
				if len(points) != 3 {
					b.Fatal("wrong point count")
				}
			}
		})
	}
}

// workerCounts is the deduplicated worker grid of the scaling benchmarks:
// 1/2/4/8 plus GOMAXPROCS when it is not already in the list. The explicit
// dedup keeps the benchmark names unique — a duplicated count used to emit a
// second `workers=1#01` series on single-core hosts, which the benchcmp gate
// then tracked as a separate (noisy) benchmark.
func workerCounts() []int {
	counts := []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
	seen := make(map[int]bool, len(counts))
	out := counts[:0]
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// BenchmarkParScaling runs the Fig. 7 sweep at fixed worker counts to expose
// the scaling of the parallel execution engine. The output is bit-identical
// at every worker count; only the wall clock moves. On a single-core host
// the curve is flat — the engine can only help where GOMAXPROCS > 1 — but
// chunked scheduling keeps the multi-worker overhead from inverting it.
func BenchmarkParScaling(b *testing.B) {
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := experiments.Fig7Workers(context.Background(), core.Config{}, w)
				if err != nil {
					b.Fatal(err)
				}
				if len(points) != 12 {
					b.Fatal("wrong point count")
				}
			}
		})
	}
}

// BenchmarkChunkSweep measures the scheduling overhead of the chunked pool
// directly: a fixed fine-grained workload (16 Ki items of short arithmetic)
// dispatched at 4 workers with explicit chunk sizes, plus the auto heuristic
// (chunk=0). Small chunks expose the per-dispatch cost the heuristic is
// there to amortize.
func BenchmarkChunkSweep(b *testing.B) {
	const n = 16 * 1024
	work := func(i int) float64 {
		x := float64(i%97) * 0.01
		return x*x - x + 0.25
	}
	for _, chunk := range []int{1, 16, 256, 0} {
		name := fmt.Sprintf("chunk=%d", chunk)
		if chunk == 0 {
			name = "chunk=auto"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := par.ForEachChunks(context.Background(), 4, n, chunk,
					func(_ context.Context, lo, hi int) error {
						s := 0.0
						for j := lo; j < hi; j++ {
							s += work(j)
						}
						// The check keeps the arithmetic observable without
						// sharing an accumulator across workers.
						if math.IsNaN(s) {
							return fmt.Errorf("NaN sum in [%d, %d)", lo, hi)
						}
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodeGeneration times the arrangement search of each code family
// at the platform's operating point (20 words).
func BenchmarkCodeGeneration(b *testing.B) {
	for _, tp := range code.AllTypes() {
		m := 10
		if !tp.Reflected() {
			m = 6
		}
		b.Run(tp.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := code.New(tp, 2, m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := code.CyclicSequence(g, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJobCheckpoint measures the two I/O legs the async job layer
// adds around a sweep: persisting one chunk checkpoint (atomic JSON
// write into the filesystem store) and the resume scan that serves a
// fully checkpointed job back — store probe per chunk, decode, concat —
// without recomputing any design point.
func BenchmarkJobCheckpoint(b *testing.B) {
	spec := jobs.Spec{
		Grid: sweep.Grid{
			Types:   []code.Type{code.TypeGray, code.TypeHot},
			Lengths: []int{4, 6},
			SigmaTs: []float64{0.04, 0.05, 0.06},
		},
		Chunk: 2,
	}
	points := spec.Grid.Points(core.Config{})
	if len(points) == 0 {
		b.Fatal("empty grid")
	}

	b.Run("persist", func(b *testing.B) {
		store, err := jobs.NewFSStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		id := spec.ID()
		if err := store.PutSpec(id, spec); err != nil {
			b.Fatal(err)
		}
		rows, err := sweep.EvalPoints(context.Background(), 0, points[:spec.Chunk])
		if err != nil {
			b.Fatal(err)
		}
		ds := sweep.Dataset(rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store.PutChunk(id, i, ds); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("resume", func(b *testing.B) {
		store, err := jobs.NewFSStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		seed := jobs.NewRunner(store, jobs.Options{})
		st, err := seed.Submit(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if st, err = seed.Wait(context.Background(), st.ID); err != nil || st.State != jobs.StateComplete {
			b.Fatalf("seed job: %v state=%s", err, st.State)
		}
		seed.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := jobs.NewRunner(store, jobs.Options{})
			got, err := r.Resume(context.Background(), st.ID)
			if err != nil {
				b.Fatal(err)
			}
			if got, err = r.Wait(context.Background(), got.ID); err != nil {
				b.Fatal(err)
			}
			if got.Computed != 0 || got.Resumed != st.Chunks {
				b.Fatalf("resume recomputed: computed=%d resumed=%d", got.Computed, got.Resumed)
			}
			page, err := r.Results(got.ID, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			if page.Dataset == nil || len(page.Dataset.Rows) == 0 {
				b.Fatal("empty resumed dataset")
			}
			r.Close()
		}
	})
}

// BenchmarkDistributedChunks times one job chunk through the engine
// executor over a peer backend against an in-process peer node: ranged
// request wire marshal, POST /peer/, the owner's engine evaluating the
// point range, the key check and dataset parse — the full per-chunk cost
// a distributed job pays over a local one. Chunk ownership spreads
// across the ring, so the figure mixes peer-served and local chunks the
// way a real job does.
func BenchmarkDistributedChunks(b *testing.B) {
	spec := jobs.Spec{
		Grid: sweep.Grid{
			Types:   []code.Type{code.TypeGray},
			Lengths: []int{4},
			SigmaTs: []float64{0.04, 0.05, 0.06, 0.07},
		},
		Chunk: 1,
	}
	points := spec.Grid.Points(core.Config{})
	if len(points) == 0 {
		b.Fatal("empty grid")
	}
	ranges := par.Ranges(len(points), spec.Chunk)
	owner, err := engine.New(engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	peer := httptest.NewServer(cluster.PeerHandler(owner))
	defer peer.Close()
	local, err := engine.New(engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pb, err := cluster.NewPeerBackend(local, cluster.Options{
		Self:  "a",
		Peers: map[string]string{"b": peer.URL},
	})
	if err != nil {
		b.Fatal(err)
	}
	exec := &jobs.EngineExecutor{Backend: pb}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(ranges)
		rg := ranges[idx]
		ds, err := exec.Execute(ctx, spec, jobs.Chunk{Index: idx, Points: points[rg.Lo:rg.Hi]})
		if err != nil {
			b.Fatal(err)
		}
		if ds == nil || len(ds.Rows) == 0 {
			b.Fatal("empty chunk dataset")
		}
	}
	b.StopTimer()
	if st := pb.Stats(); b.N >= len(ranges) && st.Served == 0 {
		b.Fatal("no chunk was peer-served: the benchmark no longer measures the wire path")
	}
}

// BenchmarkPlanConstruction times the MSPT matrix algebra (P -> D, S, ν, Φ)
// for a 20x10 half cave.
func BenchmarkPlanConstruction(b *testing.B) {
	g, err := code.NewBalancedGray(2, 10)
	if err != nil {
		b.Fatal(err)
	}
	words, err := g.Sequence(20)
	if err != nil {
		b.Fatal(err)
	}
	doses := []int64{200, 900}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := mspt.NewPlan(words, 2, doses)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Phi() != 40 {
			b.Fatal("unexpected Φ")
		}
	}
}

// BenchmarkFlowReplay times the step-by-step fabrication-flow simulation.
func BenchmarkFlowReplay(b *testing.B) {
	g, _ := code.NewBalancedGray(2, 10)
	words, _ := g.Sequence(20)
	plan, err := mspt.NewPlan(words, 2, []int64{200, 900})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := plan.Run(); res.LithoSteps != 40 {
			b.Fatal("flow diverged")
		}
	}
}

// BenchmarkYieldAnalysis times the analytic addressability analysis of a
// full design point.
func BenchmarkYieldAnalysis(b *testing.B) {
	d, err := core.NewDesign(core.Config{CodeType: code.TypeBalancedGray})
	if err != nil {
		b.Fatal(err)
	}
	a := d.Analyzer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := a.AnalyzeCrossbar(d.Plan, d.Layout)
		if res.Yield <= 0 {
			b.Fatal("yield collapsed")
		}
	}
}

// BenchmarkDesign times a complete end-to-end decoder design (code search,
// doping plan, layout, yield).
func BenchmarkDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewDesign(core.Config{CodeType: code.TypeGray}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalLayer times one Monte-Carlo fabrication of a 128-wire
// crossbar layer including the conduction-based addressability resolution.
func BenchmarkFunctionalLayer(b *testing.B) {
	d, err := core.NewDesign(core.Config{CodeType: code.TypeBalancedGray})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := crossbar.NewDecoder(d.Plan, d.Quantizer)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crossbar.BuildLayerWorkers(context.Background(), dec, d.Layout.Contact, 128, d.Config.SigmaT, rng, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryReadWrite times bit access through the functional memory.
func BenchmarkMemoryReadWrite(b *testing.B) {
	d, _ := core.NewDesign(core.Config{CodeType: code.TypeBalancedGray})
	dec, _ := crossbar.NewDecoder(d.Plan, d.Quantizer)
	rng := stats.NewRNG(2)
	rows, err := crossbar.BuildLayerWorkers(context.Background(), dec, d.Layout.Contact, 128, 0, rng, 0)
	if err != nil {
		b.Fatal(err)
	}
	cols, _ := crossbar.BuildLayerWorkers(context.Background(), dec, d.Layout.Contact, 128, 0, rng, 0)
	mem := crossbar.NewMemory(rows, cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, c := i%128, (i*7)%128
		if err := mem.Write(r, c, i%2 == 0); err != nil {
			b.Fatal(err)
		}
		if _, err := mem.Read(r, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContactPlanning times the layout resolution.
func BenchmarkContactPlanning(b *testing.B) {
	spec := geometry.DefaultCrossbarSpec()
	for i := 0; i < b.N; i++ {
		if _, err := geometry.NewLayout(spec, 10, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhysicsInverse times the numeric inversion of the threshold law.
func BenchmarkPhysicsInverse(b *testing.B) {
	m := physics.DefaultPhysicalModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nd := m.Doping(0.3); nd <= 0 {
			b.Fatal("inversion failed")
		}
	}
}

// BenchmarkRegionProb times the innermost yield primitive.
func BenchmarkRegionProb(b *testing.B) {
	a := yield.Analyzer{SigmaT: 0.05, Margin: 0.25}
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += a.RegionProb(i%20 + 1)
	}
	if s < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkAblationArrangement times the arrangement comparison (Props 4-5
// ablation): counting vs random vs Gray orders of one code space.
func BenchmarkAblationArrangement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationArrangementWorkers(context.Background(), []uint64{1, 2, 3}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMargin times the margin-factor sensitivity sweep.
func BenchmarkAblationMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMarginWorkers(context.Background(), []float64{0.4, 0.7, 1.0}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiValued times the multi-valued logic extension sweep.
func BenchmarkMultiValued(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiValued(core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoiseStudy times the variability-model extension (derived sigma
// plus correlated-noise Monte Carlo).
func BenchmarkNoiseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NoiseStudyWorkers(context.Background(), core.Config{}, 20, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadoutStudy times the analog sensing extension.
func BenchmarkReadoutStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReadoutWorkers(context.Background(), core.Config{}, 10, uint64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrelatedSampling times one correlated-noise threshold sample of
// a 20x10 half cave.
func BenchmarkCorrelatedSampling(b *testing.B) {
	d, err := core.NewDesign(core.Config{CodeType: code.TypeBalancedGray})
	if err != nil {
		b.Fatal(err)
	}
	np := mspt.NoiseParams{SigmaRandom: 0.035, SigmaSystematic: 0.035}
	rng := stats.NewRNG(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Plan.SampleVTCorrelated(rng, np, d.Quantizer.VTOf)
	}
}

// BenchmarkMaskAnalysis times the mask-reuse analysis of a half-cave plan.
func BenchmarkMaskAnalysis(b *testing.B) {
	d, _ := core.NewDesign(core.Config{CodeType: code.TypeGray})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := d.Plan.Masks(); set.Passes != 40 {
			b.Fatal("mask analysis diverged")
		}
	}
}

// BenchmarkReportGeneration times the full Markdown reproduction report,
// on a fresh engine per iteration so every section computes.
func BenchmarkReportGeneration(b *testing.B) {
	req := engine.Request{Seed: experiments.DefaultSeed, Trials: 1}
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := report.Generate(context.Background(), eng, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGrid times the batch design-space sweep over the default
// Fig. 7/8 grid.
func BenchmarkSweepGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sweep.RunWorkers(context.Background(), core.Config{}, sweep.Grid{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 20 {
			b.Fatal("unexpected grid size")
		}
	}
}

// engineBenchRequest is the request both engine benchmarks issue: the Fig. 7
// crossbar-yield experiment, the same workload BenchmarkFig7 times directly.
// The pair quantifies the serving layer's cache: cold pays one full compute
// per iteration, warm pays a content-addressed lookup plus a dataset clone.
func engineBenchRequest() engine.Request {
	return engine.Request{Kind: engine.KindExperiment, Experiment: "fig7"}
}

// BenchmarkEngineCold times engine requests that can never hit the cache: a
// fresh engine per iteration, so every Do is a full Fig. 7 regeneration
// behind the serving layer (validation, admission, instrumentation).
func BenchmarkEngineCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := eng.Do(context.Background(), engineBenchRequest())
		if err != nil {
			b.Fatal(err)
		}
		if resp.CacheHit {
			b.Fatal("fresh engine reported a cache hit")
		}
	}
}

// BenchmarkEngineCacheHit times the same request against a warmed engine:
// after the first compute every iteration must be served from the
// content-addressed cache. The acceptance bar is >=10x faster than
// BenchmarkEngineCold.
func BenchmarkEngineCacheHit(b *testing.B) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Do(context.Background(), engineBenchRequest()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.Do(context.Background(), engineBenchRequest())
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("warmed engine missed the cache")
		}
	}
}
