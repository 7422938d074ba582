#!/usr/bin/env bash
# Builds mlnbench from source into .bench_build/ at the checkout root and runs
# it there. Everything the build writes (binary, Go build cache) stays inside
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/mlnbench" . >&2
exec "$build/mlnbench" "$@"
