#!/bin/sh
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run from the repository root:
#
#   sh perfbench/run.sh --workload synth-c1908 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the compiler's temp files live in
# .bench_build/, so nothing is written outside the checkout.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root (the iddqsyn sources are not here)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$out/tmp"
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
