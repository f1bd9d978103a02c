#!/bin/sh
# Perf trajectory (`make bench-json`): run the canonical benchmarks —
# BenchmarkEvolve (one full c432 evolution per iteration),
# BenchmarkServeSubmit/BenchmarkServeSubmitCached (the serving layer's
# durable admission path and its cache hit), BenchmarkJournalAppend
# (one fsynced record on the segmented journal's O(1) append path) and
# BenchmarkLintRepo (a full load + type-check + analyzer-suite pass,
# the cost every CI run and pre-commit hook pays), the set-up ladder
# steps BenchmarkEstimateNew_* (L0: the ρ-neighbourhood cache) and
# BenchmarkChainStartPartition_* (L1: one chain start partition) at
# c1908 and at a seeded 20k-gate random-logic circuit, and the one-move
# re-cost step BenchmarkIncrementalCost (L2: clone, one single-gate move,
# Costs on c1908) beside BenchmarkFullRecomputeCost (the same move
# re-costed by a fresh partition.New) and BenchmarkIncrementalCost_20k
# (the L2 step on the 20k circuit's chain start partition), and the L4
# whole run BenchmarkEvolutionConvergence_C1908 (2888 evaluations) at
# -cpu 1 and 2, so the sequential and the parallel run sit side by side
# (rendered as .../cpu1 and .../cpu2) —
# and render the results as BENCH_<n>.json so every PR leaves a
# comparable perf point on disk (ROADMAP item: the BENCH_*.json
# trajectory).
#
# The serving layer's client-observed latency rides along: a short
# in-process iddqload run contributes a "serve_latency" block
# (p50/p90/p99 end-to-end seconds at a fixed offered rate), so the
# trajectory tracks what a client feels, not only what the optimizer
# costs per op.
#
# BENCH_PR sets <n> (default 15); BENCH_OUT overrides the output path.
set -eu
cd "$(dirname "$0")/.."

BENCH_PR="${BENCH_PR:-15}"
BENCH_OUT="${BENCH_OUT:-BENCH_${BENCH_PR}.json}"
raw="$(mktemp /tmp/iddqsyn-bench.XXXXXX)"
sum="$(mktemp /tmp/iddqsyn-bench-lat.XXXXXX)"
trap 'rm -f "$raw" "$sum"' EXIT INT TERM

echo "== go test -bench (serving layer + optimizer) -> $BENCH_OUT"
go test -run '^$' -bench '^BenchmarkServeSubmit$|^BenchmarkServeSubmitCached$|^BenchmarkJournalAppend$' \
    -benchmem -benchtime 50x ./internal/serve/ | tee "$raw"
go test -run '^$' -bench '^BenchmarkEvolve$|^Benchmark(EstimateNew|ChainStartPartition)_(C1908|20k)$' \
    -benchmem -benchtime 3x . | tee -a "$raw"
go test -run '^$' -bench '^BenchmarkIncrementalCost$|^BenchmarkFullRecomputeCost$' \
    -benchmem -benchtime 1000x . | tee -a "$raw"
go test -run '^$' -bench '^BenchmarkIncrementalCost_20k$' -benchmem -benchtime 200x . | tee -a "$raw"
go test -run '^$' -bench '^BenchmarkEvolutionConvergence_C1908$' -cpu 1,2 -benchmem -benchtime 3x . | tee -a "$raw"
go test -run '^$' -bench '^BenchmarkLintRepo$' -benchmem -benchtime 3x ./internal/lint/ | tee -a "$raw"

echo "== iddqload smoke (serve e2e latency percentiles)"
go run ./cmd/iddqload -inprocess -rate 10 -duration 3s -gens 6 -seed 1 \
    -pr "$BENCH_PR" -out /tmp/iddqsyn-bench-load.json -summary "$sum"

awk -v pr="$BENCH_PR" -v goversion="$(go env GOVERSION)" -v summaryfile="$sum" '
/^Benchmark/ {
    name = $1
    procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    # Run at several -cpu values: keep the entries apart.
    if (name ~ /^BenchmarkEvolutionConvergence_/) name = name "/cpu" procs
    iters = $2
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    row = sprintf("  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
    if (bytes != "") row = row sprintf(", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bytes, allocs)
    row = row "}"
    rows[n++] = row
}
END {
    if (n == 0) { print "bench: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf " \"format\": \"iddqsyn-bench\",\n"
    printf " \"version\": 1,\n"
    printf " \"pr\": %s,\n", pr
    printf " \"go\": \"%s\",\n", goversion
    printf " \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
    printf " ],\n"
    printf " \"serve_latency\": "
    first = 1
    while ((getline line < summaryfile) > 0) {
        if (first) { printf "%s\n", line; first = 0 } else printf " %s\n", line
    }
    if (first) { print "bench: latency summary missing" > "/dev/stderr"; exit 1 }
    printf "}\n"
}' "$raw" >"$BENCH_OUT"

echo "bench: wrote $BENCH_OUT"
