#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, the go command's own
# counters) lands in .bench_build/
# at the root of the checkout; the program itself runs from benchmark/ and
# writes only benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$here"
go build -buildvcs=false -o "$build/permbench" .
exec "$build/permbench" "$@"
