#!/bin/sh
# Tracked simulator benchmark: runs BenchmarkSimulator (the checked
# interpreter), BenchmarkSimulatorNative/NativeCtx (the closure-threaded
# native tier under a safety certificate, driven directly and through
# Artifact.RunOn with a live context), and BenchmarkSimulatorContexts (K=4
# time-shared hardware contexts) with fixed -benchtime/-count so runs are
# comparable across commits, then emits BENCH_sim.json via benchjson,
# comparing against the committed baseline (scripts/bench_baseline.txt).
set -eu
cd "$(dirname "$0")/.."

out=${1:-BENCH_sim.json}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# Three full-suite passes instead of one pass with -count=3: -count runs a
# benchmark's repetitions back-to-back, so a slow stretch of the machine
# lands entirely on whichever benchmark was up. Interleaving whole passes
# spreads each benchmark's samples across the run; benchjson averages per
# name over the concatenated output.
for _ in 1 2 3; do
	go test -run '^$' -bench 'Simulator' -benchtime=2s -count=1 -benchmem .
done | tee "$raw"
# Two floors: the native tier has to hold its committed baseline (10%
# noise floor — the checkpoint/restore and context machinery must cost
# nothing when unused), and its closure threading has to be worth the
# translation: at least 2x the checked interpreter's beat rate on the same
# run.
go run ./cmd/benchjson -baseline scripts/bench_baseline.txt \
	-require 'BenchmarkSimulatorNative=0.90' \
	-require-ratio 'BenchmarkSimulator/BenchmarkSimulatorNative=2.00' \
	-o "$out" "$raw"
echo "wrote $out"
