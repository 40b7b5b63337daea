#!/bin/sh
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload prefix-reuse --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traces,
# run records) goes under $CARGO_TARGET_DIR, default .bench_build in the
# checkout root, so nothing outside the checkout is touched.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
cd "$root/benchmark"
go build -o "$out/benchmark" . >&2
exec "$out/benchmark" -out "$out" "$@"
