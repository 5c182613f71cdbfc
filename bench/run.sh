#!/usr/bin/env bash
# `go run ./bench "$@"` for a driver that allows no write outside the
# checkout: the binary goes to .bench_build/ at the root of the checkout, and
# so do the Go build cache and temporary files, which `go run` would put
# under $HOME and /tmp.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/gompbench" ./bench
exec "$build/gompbench" "$@"
