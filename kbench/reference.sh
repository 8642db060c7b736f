#!/usr/bin/env bash
# Reference figures for the worker pools at 1 and 2 workers: the orbit
# search on Net-trace (ksym -search-workers), the parallel 𝒯𝒟𝒱 pass on a
# 1M-vertex Barabási–Albert graph (ksym -tdp -search-workers), and the
# sample batch (ksample -workers). Prints one line per timed run:
#
#   bash kbench/reference.sh [reps]
set -euo pipefail
reps=${1:-5}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
bin="$out/bin"
dir="$out/reference"
mkdir -p "$bin" "$dir"
(cd "$root" && go build -o "$bin/" ./cmd/ksym ./cmd/ksample ./cmd/kgen) >&2
"$bin/kgen" -model nettrace -out "$dir/nettrace.edges" 2>/dev/null
"$bin/kgen" -model ba -n 1000000 -m 3 -out "$dir/ba.edges" 2>/dev/null
mkdir -p "$dir/samples"

# partition prints the partition stage's wall time from ksym's report.
partition() { awk '/^stage partition/ {print $3}'; }
# wall runs a command and prints its wall time in seconds.
wall() {
	local t0 t1
	t0=$(date +%s%N)
	"$@" >/dev/null 2>&1
	t1=$(date +%s%N)
	awk -v d=$((t1 - t0)) 'BEGIN {printf "%.3fs", d / 1e9}'
}

for ((r = 0; r < reps; r++)); do
	for w in 1 2; do
		echo "orbit-search nettrace k=5 search-workers=$w partition=$("$bin/ksym" -in "$dir/nettrace.edges" -k 5 -search-workers $w -release "$dir/nettrace.release" 2>&1 >/dev/null | partition)"
		echo "tdv ba-1M k=2 search-workers=$w partition=$("$bin/ksym" -in "$dir/ba.edges" -k 2 -tdp -search-workers $w -release "$dir/ba.release" 2>&1 >/dev/null | partition)"
		echo "ksample nettrace-k5 count=20 workers=$w wall=$(wall "$bin/ksample" -release "$dir/nettrace.release" -count 20 -workers $w -out-dir "$dir/samples")"
		echo "ksample ba-1M-k2 count=3 workers=$w wall=$(wall "$bin/ksample" -release "$dir/ba.release" -count 3 -workers $w -out-dir "$dir/samples")"
	done
done
