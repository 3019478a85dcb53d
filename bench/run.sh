#!/usr/bin/env bash
# Builds the benchmark from source and runs it from bench/, passing every
# argument through. The Go build cache and GOPATH are kept under
# bench/out, so nothing outside the checkout is read or written.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTOOLCHAIN=local GOWORK=off
go build -o out/mxqbench .
exec out/mxqbench "$@"
