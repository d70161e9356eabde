#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout this
# script lives in, then runs it with the arguments given. Everything the go
# tool writes (build cache, module cache, telemetry) is kept in there too, so
# a run reads and writes only inside its checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
go build -C "$here" -o "$out/rasbench" .
exec "$out/rasbench" "$@"
