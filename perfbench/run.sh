#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
# Build products, the Go build cache, go's own config and temporary files,
# and the reports all go under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
