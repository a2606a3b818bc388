#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Everything the build and the run write — Go's build cache
# included — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/postcard-bench" .
exec "$build/postcard-bench" "$@"
