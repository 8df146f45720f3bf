#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it from the checkout root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload crowd --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the go command's config and telemetry, the binary,
# journals and span files all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --work "$out" "$@"
