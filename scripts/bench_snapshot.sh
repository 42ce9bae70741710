#!/bin/sh
# bench_snapshot: run the paper-replication benchmark suite and append
# a dated snapshot to BENCH_core.json, the core-simulator throughput
# trajectory (sibling of BENCH_conformance.json). Each benchmark's
# ns/op, B/op and allocs/op plus its custom ReportMetric columns
# (sim-cycles/s, mispredict rates, ablation deltas, ...) are captured
# verbatim, so regressions in simulator speed, allocation churn or
# model behavior show up as a diff in version control, not as a
# feeling.
#
# Knobs: BENCH_PATTERN (go test -bench regexp, default the full suite),
# BENCH_COUNT (repetitions, default 1), BENCH_OUT (default
# BENCH_core.json in the repo root).
set -eu

pattern="${BENCH_PATTERN:-.}"
count="${BENCH_COUNT:-1}"
out="${BENCH_OUT:-BENCH_core.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "== go test -bench '$pattern' -benchmem -count $count (run log: stderr)"
go test -run '^$' -bench "$pattern" -benchmem -benchtime 1x -count "$count" . | tee "$raw" >&2

date="$(date +%Y-%m-%d)"
entry=$(awk -v date="$date" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # strip -GOMAXPROCS suffix
		if (n > 0) printf ",\n"
		printf "   {\n    \"name\": \"%s\",\n    \"iters\": %s", name, $2
		for (i = 3; i + 1 <= NF; i += 2)
			printf ",\n    \"%s\": %s", $(i + 1), $i
		printf "\n   }"
		n++
	}
	END { if (n == 0) exit 1 }
' "$raw") || {
	echo "bench_snapshot: no benchmark lines in output" >&2
	exit 1
}

if [ ! -f "$out" ]; then
	cat >"$out" <<'EOF'
{
 "comment": "Core simulator benchmark trajectory. One entry per recorded run of `make bench-snapshot` (go test -bench over the paper-replication suite: Table 1 conformance deltas, Figure 2/3 phase and cache behavior, sim-cycle throughput, and the microarchitectural ablations). Units are embedded per metric exactly as the benchmarks report them.",
 "runs": [
 ]
}
EOF
fi

# Append this run inside the "runs" array: drop the closing " ]\n}" and
# re-emit it after the new entry.
tmp="$(mktemp)"
nruns=$(grep -c '"date":' "$out" || true)
head -n -2 "$out" >"$tmp"
if [ "${nruns:-0}" -gt 0 ]; then
	# terminate the previous entry's closing brace with a comma
	sed -i '$ s/}$/},/' "$tmp"
fi
{
	printf '  {\n   "date": "%s",\n   "benchmarks": [\n' "$date"
	printf '%s\n' "$entry"
	printf '   ]\n  }\n ]\n}\n'
} >>"$tmp"
mv "$tmp" "$out"
echo "bench snapshot: appended $(printf '%s\n' "$entry" | grep -c '"name"') benchmark(s) to $out"
