#!/bin/sh
# verify.sh — the repo's full verification gate, referenced from ROADMAP.md
# and run verbatim by CI (.github/workflows/verify.yml). Runs the tier-1
# build/tests plus the race detector and the spcdlint static analyzers
# (internal/analysis), checks that every tracked Go file is gofmt-clean, and
# vets and tests the benchmark module (benchmark/ is a module of its own, so
# the root `go test ./...` never compiles it). Pre-merge checks should run
# exactly this.
#
# BENCH=1 ./verify.sh additionally runs `make bench`: full-length
# microbenchmarks of the vm, cache and engine hot paths, then the repository
# benchmark (benchmark/run.sh). Opt-in because it adds minutes of wall time
# and its numbers are machine-dependent.
#
# OBS=1 ./verify.sh additionally runs `make obs-smoke`: a tiny traced
# simulation through cmd/spcdobs whose -check flag re-reads the emitted
# Chrome-trace JSON and CSV time series and validates them. OBS_DIR overrides
# the artifact directory; by default a temporary directory is used and
# removed afterwards.
set -eux

go build ./...
go vet ./...
go test -race ./...
go run ./cmd/spcdlint ./...
unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt -l reports unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi
(cd benchmark && go vet . && go test .)

if [ "${BENCH:-0}" = "1" ]; then
	make bench
fi

if [ "${OBS:-0}" = "1" ]; then
	if [ -n "${OBS_DIR:-}" ]; then
		make obs-smoke OBS_DIR="$OBS_DIR"
	else
		obsdir=$(mktemp -d)
		make obs-smoke OBS_DIR="$obsdir"
		rm -rf "$obsdir"
	fi
fi
