#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-lhmm --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and output file stays under .bench_build/
# in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/xdg"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/xdg"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local

go build -C "$here" -o "$out/perfbench" .
exec "$out/perfbench" -outdir "$out" "$@"
