#!/bin/sh
# CI gate: formatting, vet, and the full test suite under the race detector
# (the compiler's parallel per-function backend must stay race-clean).
# Equivalent to `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go test -race"
# 20m: the tier matrix in internal/fuzz's seed tests runs every seed on
# checked and on native under both certificate grades, which under the race
# detector does not fit go test's default 10m package budget.
go test -race -timeout 20m ./...

echo "== go test -race, focused: simulator tiers/contexts/snapshots + serving layer"
# The suite above already runs these packages once under -race, but cached
# results satisfy it on re-runs; -count=1 forces the two packages with real
# cross-goroutine traffic (pooled machines, hardware contexts, snapshot
# store, native-tier translation cache) to re-execute under the detector
# every time.
go vet ./internal/vliw/ ./internal/serve/
go test -race -count=1 ./internal/vliw/ ./internal/serve/

echo "== tracelint (static schedule + safety verification: examples + sort x O0/O1/O2 x Trace 7/14/28)"
go run ./cmd/tracelint -matrix -safety examples/*.mf testdata/sort.mf
echo "== tracelint (checked-in fuzz corpus)"
go run ./cmd/tracelint -corpus internal/fuzz/testdata/fuzz/FuzzDifferential/*

echo "== native tier smoke (native under resource and safety certificates vs checked agree: examples x O0/O1/O2 x Trace 7/14/28)"
go test -run 'Test(Native|Fast)CheckedAgree' -count=1 .

echo "== hardware contexts smoke (examples x K=1/2/4 time-shared)"
go build -o /tmp/tracesim.check ./cmd/tracesim
for ex in examples/*.mf; do
	for k in 1 2 4; do
		/tmp/tracesim.check -contexts "$k" "$ex" >/dev/null ||
			{ echo "tracesim -contexts $k $ex failed"; exit 1; }
	done
done
echo "== checkpoint/restore smoke (examples x O0/O2 x 3 split beats vs one-shot run)"
snapdir=$(mktemp -d)
for ex in examples/*.mf; do
	for o in 0 2; do
		/tmp/tracesim.check -O "$o" "$ex" >"$snapdir/ref.out"
		for at in 1 2000 200000; do
			rm -f "$snapdir/run.snap"
			/tmp/tracesim.check -O "$o" -snapshot-at "$at" \
				-snapshot-file "$snapdir/run.snap" "$ex" >"$snapdir/split.out"
			# A split past the end of the run completes instead of pausing
			# and writes no snapshot; either way the (possibly stitched)
			# output must be byte-identical to the uninterrupted run.
			if [ -f "$snapdir/run.snap" ]; then
				/tmp/tracesim.check -O "$o" -resume "$snapdir/run.snap" "$ex" >>"$snapdir/split.out"
			fi
			diff "$snapdir/ref.out" "$snapdir/split.out" >/dev/null ||
				{ echo "checkpoint smoke: $ex -O$o split@$at diverges from the one-shot run"; exit 1; }
		done
	done
done
rm -rf "$snapdir"
rm -f /tmp/tracesim.check

echo "== tracefuzz smoke (tier matrix: checked vs native/resource and native/safe + K=4 timeshare oracle)"
go run ./cmd/tracefuzz -seed 1 -n 200 -tier=native -timeshare

echo "== tracefuzz checkpoint oracle (random-beat splits, checked vs native/resource and native/safe)"
go run ./cmd/tracefuzz -seed 1 -n 50 -tier=native -snapshot

echo "== tracesrv smoke (compile/run/lint round-trips + graceful shutdown)"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/tracesrv" ./cmd/tracesrv
go build -o "$bin/srvsmoke" ./cmd/srvsmoke
"$bin/tracesrv" -addr 127.0.0.1:0 -port-file "$bin/port" &
srv=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
	[ -s "$bin/port" ] && break
	sleep 0.25
done
[ -s "$bin/port" ] || { echo "tracesrv: never wrote port file"; kill "$srv" 2>/dev/null; exit 1; }
"$bin/srvsmoke" -addr "$(cat "$bin/port")" -src examples/fib.mf
kill -TERM "$srv"
if wait "$srv"; then
	echo "tracesrv: drained cleanly"
else
	echo "tracesrv: non-zero exit on SIGTERM drain"
	exit 1
fi

echo "== go test -fuzz (10s per target)"
go test ./internal/fuzz -run=^$ -fuzz=FuzzDifferential -fuzztime=10s
go test ./internal/fuzz -run=^$ -fuzz=FuzzGen -fuzztime=10s

echo "== ok"
