#!/usr/bin/env bash
# Builds ttabench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#   bash cmd/ttabench/run.sh -workload sweep_cold -seed 1 -seconds 20 -trace 0
#   bash cmd/ttabench/run.sh                      # every workload, then the traced pass
#   bash cmd/ttabench/run.sh -compare a.json b.json
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the binary, the Go build cache and the scratch files.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$src" && go build -o "$out/bin/ttabench" .)
exec "$out/bin/ttabench" "$@"
