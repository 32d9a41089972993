#!/usr/bin/env bash
# Builds the motsim benchmark from the source tree it sits in and runs it
# with the given arguments, for example:
#
#   bash motbench/run.sh --workload sg1423-step0 --seed 11423 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# trace files all live under .bench_build/ in that root, so a run reads and
# writes nothing outside the tree.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
go -C "$root/motbench" build -o "$out/motbench" .
exec "$out/motbench" "$@"
