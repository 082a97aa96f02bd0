#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it from the checkout root. Everything the Go toolchain writes (build
# cache, temp files, telemetry) is confined to .bench_build, so a run
# reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache" GOPATH="$build/home/go" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/hpfbench" .)
cd "$root"
exec "$build/hpfbench" "$@"
