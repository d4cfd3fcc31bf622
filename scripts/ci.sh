#!/bin/sh
# ci.sh — the tier-1.5 verification gate (see ROADMAP.md). Run locally or
# from .github/workflows/ci.yml, which runs the three stages as parallel
# jobs and uploads each job's ci-artifacts/ on every run.
#
# Usage:  scripts/ci.sh [lint|test|bench|all]
#
# Stages (default: all, the full local gate):
#
#   lint   1. gofmt -l        — the tree must be canonically formatted
#          2. go build ./...  — everything compiles
#          3. go vet ./...    — static checks
#          4. go run ./cmd/nwlint ./...  — the project-invariant analyzer;
#             the tree must be free of diagnostics under all eight rules
#             (determinism, ctxfirst, nogoroutine, errcheck, printbound,
#             scratchconfine, typedatomic, layering). The JSON report
#             lands in ci-artifacts/nwlint.json; no source comment can
#             silence a rule, so exceptions are visible in
#             internal/lint/config.go only
#          5. (cd _perfbench && go vet ./...)  — type-checks the benchmark
#             harness, which ./... skips because of the leading
#             underscore, so deleting API it calls fails here and not
#             only when the benchmark runs
#
#   test   6. go test -race -count=1 ./...  — full suite under the race
#             detector, cache disabled; this is what keeps internal/par,
#             the shared generator cache and the jobs runner race-clean
#             and exercises the serial-vs-parallel determinism tests. It
#             includes cmd/nwserve's TestBinary, the real-process check
#             of the listener and graceful shutdown (one request, the
#             async job lifecycle, then SIGTERM and a clean exit), and
#             TestPeerSmoke: a two-node in-process fleet asserting
#             X-Cache miss-peer then hit-peer through the node that does
#             not own a key, and a job through that node spread over both
#             engines with byte-identical output. TestCLIObservability
#             checks the nwsim -metrics snapshot and that stdout is
#             byte-identical with metrics on and off
#          7. coverage gate — go run ./scripts/covergate enforces
#             per-package statement-coverage floors over
#             internal/{par,code,dataset,obs,engine,jobs,cluster,nwerr,
#             lint,stats,yield}
#
#   bench  8. bench regression — scripts/bench.sh measures a fresh
#             BENCH_parallel.json into ci-artifacts/ and
#             scripts/benchcmp.go compares it against the committed
#             baseline (±20% ns/op). Warns by default; set
#             CI_BENCH_STRICT=1 to fail on regression.
#          9. jobs kill/resume smoke — submits a multi-chunk sweep job
#             through nwsweep -job, SIGKILLs it mid-run, resumes from the
#             checkpoint store and asserts the final dataset is
#             byte-identical to an uninterrupted run; a second resume of
#             the complete job must recompute zero chunks, verified both
#             by the computed=0 accounting line and by the obs
#             jobs/chunks_* counters. The job store is preserved under
#             ci-artifacts/job-smoke/ when the smoke fails.
#         10. distributed jobs smoke — starts two nwserve peers, runs
#             the same sweep job through nwsweep -peers so chunks route
#             over the consistent-hash ring, SIGKILLs one peer
#             mid-job and asserts the job still completes with output
#             byte-identical to a single-node reference run and with a
#             nonzero peer_served count in the ring accounting line. The
#             stores and logs are preserved under ci-artifacts/dist-smoke/
#             when the smoke fails.
#         11. fuzz smoke — 10s of real fuzzing per fuzz target of every
#             package under internal/ and cmd/, auto-discovered from the
#             test files; new inputs are not minimized (a failing input
#             is still saved, unminimized)
#
# Every stage ends with a per-step wall-time table (rendered by
# scripts/citimes through internal/dataset). Exits non-zero on the first
# failure.
set -eu

cd "$(dirname "$0")/.."

stage="${1:-all}"
case "$stage" in
lint | test | bench | all) ;;
*)
	echo "usage: scripts/ci.sh [lint|test|bench|all]" >&2
	exit 2
	;;
esac

artifacts=ci-artifacts
mkdir -p "$artifacts"
steptimes="$artifacts/step-times.txt"
: >"$steptimes"

# step runs one named gate, echoing a banner and recording its wall time
# for the closing summary table.
step() {
	step_name="$1"
	shift
	echo "== $step_name =="
	step_t0="$(date +%s)"
	"$@"
	step_t1="$(date +%s)"
	echo "$step_name $((step_t1 - step_t0))" >>"$steptimes"
}

# gate runs a command whose report goes to an artifact file, showing the
# report either way and preserving the command's exit status (a plain
# `cmd | tee` would let tee's status mask a failing gate).
gate() {
	outfile="$1"
	shift
	if "$@" >"$outfile"; then
		cat "$outfile"
	else
		status=$?
		cat "$outfile"
		return "$status"
	fi
}

run_gofmt() {
	unformatted="$(gofmt -l .)"
	if [ -n "$unformatted" ]; then
		echo "gofmt: the following files need formatting:" >&2
		echo "$unformatted" >&2
		return 1
	fi
}

run_build() {
	go build ./...
}

run_vet() {
	go vet ./...
}

run_perfbench_vet() {
	(cd _perfbench && go vet ./...)
}

run_nwlint() {
	# Exit 0 means zero diagnostics under every rule.
	gate "$artifacts/nwlint.json" go run ./cmd/nwlint -json ./...
}

run_tests() {
	go test -race -count=1 ./...
}

run_cover() {
	gate "$artifacts/coverage.txt" go run ./scripts/covergate
}

run_bench() {
	scripts/bench.sh 50x "$artifacts/bench-current.json" >/dev/null
	gate "$artifacts/benchcmp.txt" go run scripts/benchcmp.go \
		-baseline BENCH_parallel.json \
		-current "$artifacts/bench-current.json"
}

# jobs_smoke_body is the kill/resume equivalence check. It runs inside
# ci-artifacts/job-smoke so a failure leaves the whole job store in the
# uploaded artifacts; run_jobs_smoke clears the bulky store again on
# success.
jobs_smoke_body() {
	jdir="$1"
	bin="$jdir/nwsweep"
	go build -o "$bin" ./cmd/nwsweep

	# A grid big enough that the run takes seconds even on a fast
	# machine, partitioned into enough chunks that SIGKILL reliably lands
	# with some — but not all — checkpoints written.
	set -- -chunk 256 -format json \
		-types tc,gc,bgc,hc,ahc -lengths 4,6,8,10 \
		-sigmas "$(seq -s, 0.030 0.001 0.080)" \
		-wires "$(seq -s, 10 2 40)"

	echo "-- reference run (uninterrupted)"
	"$bin" -job -job-store "$jdir/ref" "$@" >"$jdir/ref.json" 2>"$jdir/ref.err"
	cat "$jdir/ref.err"
	id="$(sed -n 's/^nwsweep: job \(j-[0-9a-f]*\) submitted.*/\1/p' "$jdir/ref.err")"
	total="$(sed -n 's/^nwsweep: job .* in \([0-9]*\) chunks$/\1/p' "$jdir/ref.err")"
	if [ -z "$id" ] || [ -z "$total" ] || [ "$total" -lt 10 ]; then
		echo "jobs smoke: reference run did not report a usable job (id=$id chunks=$total)" >&2
		return 1
	fi

	echo "-- interrupted run (SIGKILL mid-job)"
	"$bin" -job -job-store "$jdir/kill" "$@" >"$jdir/kill.json" 2>"$jdir/kill.err" &
	pid=$!
	# The job id is content-addressed, so the killed run writes to the
	# same id the reference reported. Kill once at least two chunks are
	# checkpointed; fail if the job finishes before the signal lands.
	i=0
	while [ "$i" -lt 400 ]; do
		n="$(ls "$jdir/kill/$id"/chunk-*.json 2>/dev/null | wc -l)"
		if [ "$n" -ge 2 ]; then
			break
		fi
		if ! kill -0 "$pid" 2>/dev/null; then
			break
		fi
		i=$((i + 1))
		sleep 0.05
	done
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "jobs smoke: job finished before it could be killed; grow the grid" >&2
		return 1
	fi
	kill -9 "$pid" 2>/dev/null
	wait "$pid" 2>/dev/null || true
	stored="$(ls "$jdir/kill/$id"/chunk-*.json 2>/dev/null | wc -l)"
	echo "killed job $id with $stored of $total chunks checkpointed"
	if [ "$stored" -lt 1 ] || [ "$stored" -ge "$total" ]; then
		echo "jobs smoke: kill landed outside the resumable window ($stored of $total chunks)" >&2
		return 1
	fi

	echo "-- resume"
	"$bin" -resume "$id" -job-store "$jdir/kill" -format json \
		>"$jdir/resumed.json" 2>"$jdir/resumed.err"
	cat "$jdir/resumed.err"
	if ! grep -q "resumed=" "$jdir/resumed.err" || grep -q "resumed=0$" "$jdir/resumed.err"; then
		echo "jobs smoke: resumed run served no chunks from checkpoints" >&2
		return 1
	fi
	if ! cmp -s "$jdir/ref.json" "$jdir/resumed.json"; then
		echo "jobs smoke: resumed output differs from the uninterrupted run" >&2
		return 1
	fi

	echo "-- resume of the complete job (must recompute nothing)"
	"$bin" -resume "$id" -job-store "$jdir/kill" -format json \
		-metrics csv -metrics-out "$jdir/metrics.csv" \
		>"$jdir/complete.json" 2>"$jdir/complete.err"
	cat "$jdir/complete.err"
	if ! grep -q "complete: chunks=$total computed=0 resumed=$total" "$jdir/complete.err"; then
		echo "jobs smoke: resume of a complete job recomputed chunks" >&2
		return 1
	fi
	# The obs counters must agree with the accounting line: every chunk
	# resumed, none computed (the computed counter is never even created
	# on a zero-recompute run).
	if ! grep -q "^jobs/chunks_resumed,counter,$total$" "$jdir/metrics.csv"; then
		echo "jobs smoke: jobs/chunks_resumed counter is not $total:" >&2
		grep "^jobs/" "$jdir/metrics.csv" >&2 || true
		return 1
	fi
	if grep "^jobs/chunks_computed," "$jdir/metrics.csv" | grep -qv ",0$"; then
		echo "jobs smoke: jobs/chunks_computed counter is nonzero:" >&2
		grep "^jobs/" "$jdir/metrics.csv" >&2
		return 1
	fi
	if ! cmp -s "$jdir/ref.json" "$jdir/complete.json"; then
		echo "jobs smoke: complete-job read differs from the uninterrupted run" >&2
		return 1
	fi
	echo "kill/resume equivalence holds: $stored checkpointed chunks survived the kill, output byte-identical"
}

run_jobs_smoke() {
	jdir="$artifacts/job-smoke"
	rm -rf "$jdir"
	mkdir -p "$jdir"
	if ! jobs_smoke_body "$jdir"; then
		echo "jobs smoke: FAILED; job store preserved in $jdir for the artifact upload" >&2
		return 1
	fi
	# Success: drop the bulky stores and datasets, keep the logs.
	rm -rf "$jdir/ref" "$jdir/kill" "$jdir/nwsweep"
	rm -f "$jdir"/*.json
}

# dist_smoke_body is the three-node distributed-job check: nwsweep is
# ring node a, two nwserve processes are chunk peers b and c, and c is
# SIGKILLed mid-job. Completion with byte-identical output is the
# observable form of the executor's failover contract: every peer
# failure degrades to local compute, never to a failed or wrong job.
dist_smoke_body() {
	ddir="$1"
	sweepbin="$ddir/nwsweep"
	servebin="$ddir/nwserve"
	go build -o "$sweepbin" ./cmd/nwsweep
	go build -o "$servebin" ./cmd/nwserve

	# Enough chunks that the kill lands mid-job and every ring node owns
	# a meaningful share.
	set -- -chunk 64 -format json \
		-types tc,gc,hc -lengths 4,6,8 \
		-sigmas "$(seq -s, 0.030 0.001 0.060)" \
		-wires "$(seq -s, 10 2 30)"

	echo "-- reference run (single node)"
	"$sweepbin" -job -job-store "$ddir/ref" "$@" >"$ddir/ref.json" 2>"$ddir/ref.err"
	cat "$ddir/ref.err"
	id="$(sed -n 's/^nwsweep: job \(j-[0-9a-f]*\) submitted.*/\1/p' "$ddir/ref.err")"
	total="$(sed -n 's/^nwsweep: job .* in \([0-9]*\) chunks$/\1/p' "$ddir/ref.err")"
	if [ -z "$id" ] || [ -z "$total" ] || [ "$total" -lt 10 ]; then
		echo "dist smoke: reference run did not report a usable job (id=$id chunks=$total)" >&2
		return 1
	fi

	echo "-- start chunk peers b and c"
	"$servebin" -addr 127.0.0.1:0 -node-id b 2>"$ddir/b.err" &
	bpid=$!
	echo "$bpid" >"$ddir/b.pid"
	"$servebin" -addr 127.0.0.1:0 -node-id c 2>"$ddir/c.err" &
	cpid=$!
	echo "$cpid" >"$ddir/c.pid"
	burl=""
	curl=""
	i=0
	while [ "$i" -lt 100 ]; do
		burl="$(sed -n 's|^nwserve: listening on \(http://.*\)$|\1|p' "$ddir/b.err")"
		curl="$(sed -n 's|^nwserve: listening on \(http://.*\)$|\1|p' "$ddir/c.err")"
		if [ -n "$burl" ] && [ -n "$curl" ]; then
			break
		fi
		i=$((i + 1))
		sleep 0.05
	done
	if [ -z "$burl" ] || [ -z "$curl" ]; then
		echo "dist smoke: peers never reported their listen addresses" >&2
		return 1
	fi
	echo "peers: b=$burl c=$curl"

	echo "-- distributed run (SIGKILL node c mid-job)"
	"$sweepbin" -job -job-store "$ddir/dist" -node-id a -peers "b=$burl,c=$curl" "$@" \
		>"$ddir/dist.json" 2>"$ddir/dist.err" &
	spid=$!
	i=0
	while [ "$i" -lt 400 ]; do
		n="$(ls "$ddir/dist/$id"/chunk-*.json 2>/dev/null | wc -l)"
		if [ "$n" -ge 2 ]; then
			break
		fi
		if ! kill -0 "$spid" 2>/dev/null; then
			break
		fi
		i=$((i + 1))
		sleep 0.05
	done
	if ! kill -0 "$spid" 2>/dev/null; then
		echo "dist smoke: job finished before node c could be killed; grow the grid" >&2
		return 1
	fi
	kill -9 "$cpid" 2>/dev/null
	wait "$cpid" 2>/dev/null || true
	echo "killed node c with $n of $total chunks checkpointed"
	if ! wait "$spid"; then
		echo "dist smoke: distributed job failed after the peer kill:" >&2
		cat "$ddir/dist.err" >&2
		return 1
	fi
	cat "$ddir/dist.err"

	if ! cmp -s "$ddir/ref.json" "$ddir/dist.json"; then
		echo "dist smoke: distributed output differs from the single-node run" >&2
		return 1
	fi
	served="$(sed -n 's/^nwsweep: ring a: .*peer_served=\([0-9]*\).*/\1/p' "$ddir/dist.err")"
	if [ -z "$served" ] || [ "$served" -eq 0 ]; then
		echo "dist smoke: ring accounting shows no peer-served chunks:" >&2
		grep '^nwsweep: ring' "$ddir/dist.err" >&2 || true
		return 1
	fi
	echo "distributed equivalence holds: $served chunks peer-served, node-c kill absorbed, output byte-identical"
}

run_dist_smoke() {
	ddir="$artifacts/dist-smoke"
	rm -rf "$ddir"
	mkdir -p "$ddir"
	status=0
	dist_smoke_body "$ddir" || status=$?
	# Always reap the peer servers, success or failure.
	for f in "$ddir"/b.pid "$ddir"/c.pid; do
		if [ -f "$f" ]; then
			kill -9 "$(cat "$f")" 2>/dev/null || true
			wait "$(cat "$f")" 2>/dev/null || true
		fi
	done
	if [ "$status" -ne 0 ]; then
		echo "dist smoke: FAILED; stores preserved in $ddir for the artifact upload" >&2
		return "$status"
	fi
	rm -rf "$ddir/ref" "$ddir/dist" "$ddir/nwsweep" "$ddir/nwserve"
	rm -f "$ddir"/*.json "$ddir"/*.pid
}

run_fuzz_smoke() {
	# One dir:target entry per Fuzz function of every package under
	# internal/ and cmd/; go test -fuzz takes one package and one target
	# per run.
	found="$(grep -Eo '^func Fuzz[A-Za-z0-9_]*' -r --include='*_test.go' internal cmd |
		sed 's|/[^/]*_test.go:func |:|' | sort)"
	if [ -z "$found" ]; then
		echo "fuzz smoke: no Fuzz targets found under internal/ or cmd/" >&2
		return 1
	fi
	# -fuzzminimizetime 0: minimizing each new interesting input re-runs
	# it many times, which for the file-backed jobs targets ate most of
	# the 10 s at 0 execs/s.
	for entry in $found; do
		dir="${entry%%:*}"
		target="${entry#*:}"
		echo "-- $dir $target"
		go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s -fuzzminimizetime 0 "./$dir"
	done
}

if [ "$stage" = "lint" ] || [ "$stage" = "all" ]; then
	step "gofmt" run_gofmt
	step "go build" run_build
	step "go vet" run_vet
	step "nwlint" run_nwlint
	step "perfbench vet" run_perfbench_vet
fi

if [ "$stage" = "test" ] || [ "$stage" = "all" ]; then
	step "go test -race" run_tests
	step "coverage gate" run_cover
fi

if [ "$stage" = "bench" ] || [ "$stage" = "all" ]; then
	step "bench regression" run_bench
	step "jobs kill/resume smoke" run_jobs_smoke
	step "distributed jobs smoke" run_dist_smoke
	step "fuzz smoke" run_fuzz_smoke
fi

echo "== step timing =="
go run ./scripts/citimes <"$steptimes"

echo "ci: $stage checks passed"
