#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the checkout root.
# Everything the build writes (binary, Go build cache, temp files) stays in
# the build directory inside the checkout: $CARGO_TARGET_DIR when the driver
# sets it, .bench_build otherwise.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own files (env, telemetry) inside too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOWORK=off
go build -C "$root/bench" -o "$build/atropos-bench" .
cd "$root"
exec "$build/atropos-bench" "$@"
