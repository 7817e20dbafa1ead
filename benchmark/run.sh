#!/usr/bin/env bash
# Builds mvdbd and the harness from source into <checkout>/.bench_build and
# runs the harness. Everything the Go toolchain writes (build cache, temp
# files, binaries) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$build/bin/mvdbd" ./cmd/mvdbd)
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" -mvdbd "$build/bin/mvdbd" "$@"
