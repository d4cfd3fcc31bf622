package main

import "nwdec/internal/engine"

// benchMetric is one metric as BENCHMARK.json declares it. Bound is set
// for end-to-end metrics only.
type benchMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a --trace 0 run reports; every workload
// defines each of them (README.md gives the per-workload definitions).
// Tail latencies are printed but not gated: on a shared 2-vCPU host a
// few host stalls per run move them by more than any bound allows.
var endToEnd = []benchMetric{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
}

// perLayer are the metrics a --trace 1 run reports. A workload that does
// not exercise a layer reports 0 for its metrics.
var perLayer = perLayerMetrics()

func perLayerMetrics() []benchMetric {
	lower := func(name, unit string) benchMetric { return benchMetric{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) benchMetric { return benchMetric{Name: name, Unit: unit, Better: "higher"} }
	out := []benchMetric{
		lower("engine.hit_us", "us"),
		lower("engine.miss_ms.design", "ms"),
		lower("engine.miss_ms.optimize", "ms"),
		lower("engine.miss_ms.montecarlo", "ms"),
		lower("engine.miss_ms.sweep", "ms"),
		lower("engine.miss_ms.experiment", "ms"),
		lower("engine.miss_ms.codes", "ms"),
		higher("engine.cache_hit_ratio", "ratio"),
		higher("engine.flight_join_ratio", "ratio"),
		lower("engine.evictions", "count"),
		lower("engine.shed_ratio", "ratio"),
		lower("cluster.peer_share", "ratio"),
		lower("cluster.fallbacks", "count"),
		lower("cluster.hop_us", "us"),
		lower("cluster.hop_p99_us", "us"),
		lower("cluster.hop_bytes", "bytes"),
		lower("dataset.render_us", "us"),
		lower("dataset.text_us", "us"),
		lower("jobs.execute_ms", "ms"),
		lower("jobs.put_chunk_us", "us"),
		lower("jobs.get_chunk_miss_us", "us"),
		lower("jobs.lease_us", "us"),
		lower("jobs.get_chunk_us", "us"),
		lower("jobs.checkpoint_bytes", "bytes"),
		lower("jobs.store_share.submit", "ratio"),
		lower("jobs.store_share.resume", "ratio"),
		lower("jobs.store_share.results", "ratio"),
		lower("jobs.runner_us_per_chunk", "us"),
		lower("sweep.point_us", "us"),
		lower("crossbar.mc_trial_us", "us"),
		lower("code.search_ms", "ms"),
		higher("par.busy_ratio", "ratio"),
		lower("loadgen.late_p99_ms", "ms"),
		lower("self.unattributed", "ratio"),
		lower("self.engine", "ratio"),
		lower("self.cluster", "ratio"),
		lower("self.dataset", "ratio"),
		lower("self.jobs_exec", "ratio"),
		lower("self.jobs_store", "ratio"),
		lower("trace.overhead_ms", "ms"),
	}
	for _, name := range engine.ExperimentNames() {
		out = append(out, lower("experiments."+name+"_ms", "ms"))
	}
	for _, name := range engine.ExperimentNames() {
		out = append(out, lower("experiments.cold."+name+"_ms", "ms"))
	}
	return out
}
