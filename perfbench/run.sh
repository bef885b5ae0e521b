#!/usr/bin/env bash
# Builds cmd/figures, cmd/serve and perfbench itself from the
# checkout's sources into .bench_build/bin, then runs perfbench with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build, and
# the toolchain never reaches the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/figures || ! -d cmd/serve ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
build=.bench_build
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$PWD/$build/gocache" GOTMPDIR="$PWD/$build/tmp" TMPDIR="$PWD/$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/bin/figures" ./cmd/figures >&2
go build -o "$build/bin/serve" ./cmd/serve >&2
(cd perfbench && go build -o "../$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -build "$build" "$@"
