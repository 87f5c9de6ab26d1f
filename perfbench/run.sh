#!/bin/sh
# Builds the benchmark runner and runs it on the checkout in the current
# directory, passing every argument through, e.g.
#
#   sh perfbench/run.sh --workload pubs-local --seed 1 --seconds 45 --trace 0
#
# Everything the build and the runs write stays under .bench_build: the
# Go build cache, temporary files, the binaries and each workload's run
# directory. The toolchain is kept off the network (GOPROXY, GOTOOLCHAIN)
# and away from the caller's Go settings (GOWORK, GOFLAGS); CGO_ENABLED=0
# builds without a C compiler.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" "$@"
