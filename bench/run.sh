#!/usr/bin/env bash
# Runs the served-system benchmark from the root of a sigkern checkout:
# builds the harness with its Go build cache inside the checkout
# (.bench_build/), then hands it every argument. The harness builds
# cmd/simserved and cmd/simgate itself. See bench/README.md.
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -compare results/parent results/change
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/simserved || ! -d cmd/simgate || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a sigkern checkout (needs go.mod, cmd/simserved, cmd/simgate, bench/go.mod)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "$out/bin/sigbench" .)
exec "$out/bin/sigbench" "$@"
