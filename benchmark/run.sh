#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# like every other file the benchmark writes) and runs it from the root of
# the checkout. Arguments pass through; see main.go for the modes.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C benchmark -o "$root/.bench_build/pbg-benchmark" .
exec "$root/.bench_build/pbg-benchmark" "$@"
