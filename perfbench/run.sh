#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments.  Every build and run artifact stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build" "$@"
