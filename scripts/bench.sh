#!/usr/bin/env bash
# Performance snapshot: runs the tier-1 benchmark set (PageRank / SSSP / CC
# on the LJ and WT Table-I analogs, the telemetry-overhead pair, and the
# ingestion set: graph-build MEPS for the counting-sort vs the seed sort
# builder, plus text-parse and snapshot-load wall time) and writes one
# machine-readable BENCH_<date>.json with MTEPS / MEPS and wall time per
# benchmark.
#
# Usage:
#   scripts/bench.sh            full run (shrink 4, scale 18, benchtime 10x, count 3)
#   scripts/bench.sh --smoke    quick correctness pass (shrink 6, scale 12, 1x,
#                               count 1), writes to a temp file removed on exit
#                               unless BENCH_OUT names the output; wired into check.sh
#
# Environment overrides:
#   GRAPHABCD_BENCH_SHRINK  dataset scale-down exponent (default per mode)
#   GRAPHABCD_BENCH_SCALE   R-MAT scale for the Build/Load set (default per mode)
#   BENCH_TIME              go test -benchtime value (default per mode)
#   BENCH_COUNT             go test -count value (default per mode)
#   BENCH_OUT               output path (default BENCH_<yyyymmdd>.json)
set -euo pipefail

cd "$(dirname "$0")/.."

mode=full
smoke_out= # the smoke run's own temp output, removed on exit
if [[ "${1:-}" == "--smoke" ]]; then
    mode=smoke
fi

if [[ "$mode" == "smoke" ]]; then
    shrink="${GRAPHABCD_BENCH_SHRINK:-6}"
    scale="${GRAPHABCD_BENCH_SCALE:-12}"
    benchtime="${BENCH_TIME:-1x}"
    count="${BENCH_COUNT:-1}"
    if [[ -z "${BENCH_OUT:-}" ]]; then
        smoke_out=$(mktemp -t bench_smoke_XXXXXX.json)
    fi
    out="${BENCH_OUT:-$smoke_out}"
else
    shrink="${GRAPHABCD_BENCH_SHRINK:-4}"
    scale="${GRAPHABCD_BENCH_SCALE:-18}"
    benchtime="${BENCH_TIME:-10x}"
    count="${BENCH_COUNT:-3}"
    out="${BENCH_OUT:-BENCH_$(date +%Y%m%d).json}"
fi

raw=$(mktemp -t bench_raw_XXXXXX.txt)
trap 'rm -f "$raw" ${smoke_out:+"$smoke_out"}' EXIT

echo "== bench (mode=$mode shrink=$shrink scale=$scale benchtime=$benchtime count=$count)"
GRAPHABCD_BENCH_SHRINK="$shrink" GRAPHABCD_BENCH_SCALE="$scale" go test -run '^$' \
    -bench 'BenchmarkPerf|BenchmarkEngineTelemetry' \
    -benchtime "$benchtime" -count "$count" . | tee "$raw"

# Fold the benchmark lines into JSON. Lines look like:
#   BenchmarkPerfPR_LJ-8   2   8013301 ns/op   30.39 MTEPS
#   BenchmarkPerfBuildCounting-8   5   212993764 ns/op   19.69 MEPS
# Repeated -count runs of the same benchmark are averaged.
awk -v mode="$mode" -v shrink="$shrink" -v scale="$scale" -v benchtime="$benchtime" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip -GOMAXPROCS suffix
    iters = $2
    ns = 0; mteps = 0; meps = 0
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "MTEPS") mteps = $i
        if ($(i+1) == "MEPS") meps = $i
        if ($(i+1) == "us/round" && $i + 0 > us_round) us_round = $i
        if ($(i+1) == "lat-us/round" && $i + 0 > lat_us_round) lat_us_round = $i
    }
    seen[name]++
    sum_ns[name] += ns
    sum_mteps[name] += mteps
    sum_meps[name] += meps
    sum_iters[name] += iters
    if (!(name in order)) { order[name] = ++n; names[n] = name }
}
END {
    if (n == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"mode\": \"%s\",\n", mode
    printf "  \"shrink\": %d,\n", shrink
    printf "  \"scale\": %d,\n", scale
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        name = names[i]
        k = seen[name]
        printf "    {\"name\": \"%s\", \"runs\": %d, \"iterations\": %d, \"ns_per_op\": %.0f, \"wall_seconds\": %.6f, \"mteps\": %.2f, \"meps\": %.2f}%s\n", \
            name, k, sum_iters[name], sum_ns[name] / k, \
            sum_ns[name] / k / 1e9, sum_mteps[name] / k, sum_meps[name] / k, \
            (i < n ? "," : "")
    }
    printf "  ],\n"
    # Telemetry-aggregation overhead (acceptance bar: <= 2% full-tier).
    # Self-measured by BenchmarkPerfDistStatsCost: the coordinator times
    # its own fStats rounds (ClusterStats.NoteRound); steady-state
    # overhead is the per-round compute cost divided by the 500ms default
    # cadence. The round latency (compute plus the waits for joiner
    # replies, which are goroutine scheduling latency on an
    # oversubscribed core while the workers keep running) is recorded
    # alongside for transparency. Repeated -count runs fold by max —
    # the worst observed per-round mean.
    if (us_round + 0 > 0) {
        printf "  \"dist_stats_us_per_round\": %.1f,\n", us_round
        printf "  \"dist_stats_round_latency_us\": %.1f,\n", lat_us_round
        printf "  \"dist_stats_overhead_pct\": %.2f\n", us_round / 500000 * 100
    } else
        printf "  \"dist_stats_overhead_pct\": null\n"
    printf "}\n"
}' "$raw" > "$out"

echo "wrote $out"
