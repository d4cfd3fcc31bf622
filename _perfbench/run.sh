#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see README.md). Everything the build and the run write
# lands under .bench_build/ at the checkout root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=readonly
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
