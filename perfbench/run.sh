#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload rsync-ooo --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# every artifact stay under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
