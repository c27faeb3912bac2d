#!/usr/bin/env bash
# Builds the benchmark (package kofl/benchmark of the repository's module)
# from source and runs it from the repository root. Everything the build
# writes (Go's build cache, temporary files, the binary) stays under
# benchmark/.build; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
cd "$(dirname "$here")"
go build -o "$build/kofl-benchmark" ./benchmark
exec "$build/kofl-benchmark" "$@"
