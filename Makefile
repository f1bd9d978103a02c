GO ?= go

.PHONY: check build test vet lint lint-baseline lint-escape lint-timing race race-soak chaos fuzz-isc fuzz-ckpt fuzz-moves fuzz-jobspec fuzz-journal fuzz-directives bench bench-json obs-demo serve-demo serve-soak load-demo torture clean

# Tier-1 verification: vet + build + lint + race-enabled short tests.
check:
	sh scripts/check.sh

# Types-aware project-specific static analysis: determinism taint,
# error-wrap and mutex-guard discipline, panic policy, context
# cancellation, Close/Sync errors, atomic rename (see cmd/iddqlint).
# Findings already recorded in lint.baseline are suppressed.
lint:
	$(GO) run ./cmd/iddqlint -baseline lint.baseline ./...

# Regenerate the committed lint baseline. Only for deliberately
# accepting existing findings — the goal state is an empty baseline.
lint-baseline:
	$(GO) run ./cmd/iddqlint -baseline-update ./...

# Cross-check the hotalloc analyzer against the compiler's escape
# analysis (-gcflags=-m=1): every compiler heap diagnostic inside a hot
# function body must be an allocation site the analyzer saw. Fails on
# analyzer false negatives.
lint-escape:
	$(GO) run ./cmd/iddqlint -escapecheck ./...

# Per-analyzer wall-clock breakdown of a full lint run, to keep the 30s
# lint CI budget honest when adding analyzers.
lint-timing:
	$(GO) run ./cmd/iddqlint -timing -baseline lint.baseline ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The static-vs-dynamic race cross-check (iddqlint -racecheck): the
# seeded intentional-race corpus must fail under -race with every seed
# attributed to its sharedstate finding, and the chaos/serve/torture-lite
# soaks must produce zero unexplained GORACE reports. Raw detector
# output lands in racecheck-logs/ (RACECHECK_LOG overrides; CI uploads).
RACECHECK_LOG ?= racecheck-logs
race-soak:
	$(GO) run ./cmd/iddqlint -racecheck -racecheck-log $(RACECHECK_LOG) ./...

# A short instrumented partitioning: live introspection on :6060
# (/runz, /metricz, expvar, pprof), JSON logs, and a run snapshot in
# obs-demo.json when it finishes.
obs-demo:
	$(GO) run ./cmd/iddqpart -gens 50 -debug-addr :6060 -metrics obs-demo.json \
	    -log-format json -log-level info benchmarks/c432.bench

# Fault-injection soak: the chaos schedule matrix over full syntheses
# (recovery must be bit-identical, degradation must be marked, failures
# must be named — see internal/chaos), plus a chaos-armed CLI run whose
# snapshot lands in chaos-run.json (CHAOS_OUT overrides; CI uploads it).
chaos:
	sh scripts/chaos.sh

# Fuzz the ISCAS85 parser (bounded; extend -fuzztime for deeper runs).
fuzz-isc:
	$(GO) test ./internal/isc/ -fuzz FuzzRead -fuzztime 30s

# Fuzz the optimizer checkpoint loader (crash-freedom + round-trip).
fuzz-ckpt:
	$(GO) test ./internal/evolution/ -fuzz FuzzCheckpointRoundTrip -fuzztime 30s

# Fuzz random MoveGates sequences against the from-scratch oracles:
# per-module S(M) vs SeparationModule, partcheck.CompareEstimate, and the
# cost bits of a fresh partition.New, after every move.
fuzz-moves:
	$(GO) test ./internal/partition/ -fuzz FuzzMoveSequence -fuzztime 30s

# Fuzz the serving layer's job-spec parser (named errors, never panics).
fuzz-jobspec:
	$(GO) test ./internal/serve/ -fuzz FuzzJobSpec -fuzztime 30s

# Fuzz the segmented-journal replay path (arbitrary bytes on disk must
# open, salvage what validates, and keep accepting appends — no panics,
# no refusal short of base corruption).
fuzz-journal:
	$(GO) test ./internal/serve/ -fuzz FuzzJournalReplay -fuzztime 30s

# Fuzz the lint directive parsers (//lint:hotpath, //lint:ignore —
# malformed input must produce findings, never panics).
fuzz-directives:
	$(GO) test ./internal/lint/ -fuzz FuzzDirectives -fuzztime 30s

# Serving-layer quick-start: boot iddqserve, submit c432 as raw bench
# text and as a JSON spec (content-cache hit), stream SSE progress,
# print the report, shut down gracefully.
serve-demo:
	sh scripts/serve_demo.sh

# Serving-layer soak: the process-level SIGKILL/restart bit-identity
# test, then a race-enabled smoke boot under concurrent client load
# with the /metricz snapshot saved (SOAK_OUT overrides; CI uploads it).
serve-soak:
	sh scripts/serve_soak.sh

# Saturation quick-start: iddqload -sweep against an in-process
# iddqserve — steps the offered rate until the p99 SLO breaks, writes
# LOAD_<n>.json (quantiles, queue-depth timeline, slowest traces) and a
# Chrome trace export (LOAD_PR/LOAD_OUT/TRACE_OUT override).
load-demo:
	sh scripts/load_demo.sh

# Crash-torture quick-start: seeded random-kill cycles of a real
# iddqserve under chaos fs schedules, invariants checked every cycle
# (TORTURE_CYCLES/TORTURE_SEED/TORTURE_OUT override; CI uploads the
# report and final /metricz as artifacts).
torture:
	sh scripts/torture.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# The committed perf trajectory: BenchmarkEvolve + BenchmarkServeSubmit
# rendered to BENCH_<n>.json (BENCH_PR / BENCH_OUT override).
bench-json:
	sh scripts/bench.sh

clean:
	$(GO) clean ./...
