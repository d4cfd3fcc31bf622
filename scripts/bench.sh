#!/bin/sh
# bench.sh — run the parallel-engine benchmark suite and record the results
# as BENCH_parallel.json in the repository root.
#
# Usage:  scripts/bench.sh [benchtime] [output]
#
# benchtime is passed to -benchtime (default 50x: enough iterations to warm
# the generator memoization cache and average out scheduler noise). output
# is the JSON path to write (default BENCH_parallel.json, the committed
# baseline; CI passes a scratch path so a fresh measurement never clobbers
# the baseline it is compared against). The JSON is an array of one
# metadata object {meta, benchtime, gomaxprocs, cpu} followed by one object
# {name, workers, iterations, ns_per_op, bytes_per_op, allocs_per_op} per
# benchmark. The benchmarks run at GOMAXPROCS=1, the setting of the
# committed baseline, on any core count; scripts/benchcmp.go refuses to
# compare files whose metadata records different settings. At one
# processor the BenchmarkParScaling curve is necessarily flat, because the
# engine changes only where work runs, never what is computed.
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-50x}"

out="${2:-BENCH_parallel.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

GOMAXPROCS=1 go test -run '^$' \
	-bench 'BenchmarkFig7$|BenchmarkFig8$|BenchmarkMonteCarloValidation$|BenchmarkSweepGrid$|BenchmarkReadoutStudy$|BenchmarkNoiseStudy$|BenchmarkCorrelatedSampling$|BenchmarkParScaling|BenchmarkMonteCarloScaling|BenchmarkChunkSweep|BenchmarkJobCheckpoint|BenchmarkDistributedChunks|BenchmarkCodeGeneration$|BenchmarkPlanConstruction$|BenchmarkYieldAnalysis$|BenchmarkFunctionalLayer$|BenchmarkRegionProb$|BenchmarkEngineCold$|BenchmarkEngineCacheHit$' \
	-benchmem -benchtime "$benchtime" . | tee "$tmp"

awk -v benchtime="$benchtime" '
/^cpu:/ { cpu = substr($0, 6); gsub(/^ +| +$/, "", cpu) }
/^Benchmark/ {
	name = $1
	# The trailing -N is the GOMAXPROCS the run used; Go omits it when
	# GOMAXPROCS is 1.
	if (match(name, /-[0-9]+$/)) {
		gmp = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	} else {
		gmp = 1
	}
	workers = "null"
	if (match(name, /workers=[0-9]+/)) {
		workers = substr(name, RSTART + 8, RLENGTH - 8)
	}
	bytes = "null"; allocs = "null"
	for (i = 4; i <= NF; i++) {
		if ($(i) == "B/op") bytes = $(i - 1)
		if ($(i) == "allocs/op") allocs = $(i - 1)
	}
	rows[++n] = sprintf("  {\"name\": \"%s\", \"workers\": %s, \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
		name, workers, $2, $3, bytes, allocs)
}
END {
	print "["
	if (gmp == "") gmp = "null"
	printf "  {\"meta\": true, \"benchtime\": \"%s\", \"gomaxprocs\": %s, \"cpu\": \"%s\"}", benchtime, gmp, cpu
	for (i = 1; i <= n; i++) printf ",\n%s", rows[i]
	print "\n]"
}
' "$tmp" > "$out"

echo "wrote $out"
