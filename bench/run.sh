#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (binary and Go
# build cache under .bench_build/) and runs it from the checkout's root.
# Every argument goes to the benchmark: see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
go -C "$here" build -buildvcs=false -ldflags "-X main.gitRev=$rev" -o "$build/rnb-bench" .
cd "$root"
exec "$build/rnb-bench" "$@"
