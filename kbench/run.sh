#!/usr/bin/env bash
# Builds the benchmark and the shipped commands (ksym, ksample, ksymd) from
# this checkout, then runs one workload. Run it from anywhere:
#
#   bash kbench/run.sh --workload paper-exact --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout, including the Go build cache.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$out/bin"
(cd "$root/kbench" && go build -o "$out/bin/kbench" .) >&2
(cd "$root" && go build -o "$out/bin/" ./cmd/ksym ./cmd/ksample ./cmd/ksymd) >&2
exec "$out/bin/kbench" -root "$root" -bin "$out/bin" "$@"
