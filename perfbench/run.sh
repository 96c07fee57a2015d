#!/usr/bin/env bash
# Builds the benchmark and the two ignite binaries it drives, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-all --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, scratch stores,
# result files and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/bin/perfbench" .
go build -o "$out/bin/" ./cmd/ignite-bench ./cmd/ignite-serve

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
