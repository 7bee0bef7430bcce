#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash campaignbench/run.sh --workload delay-trie --seed 1 --seconds 20 --trace 0
#
# Every build artefact and scratch file goes under .bench_build/ in the
# current directory, including the Go build cache, so the run reads and
# writes nothing outside the checkout except the Go toolchain itself.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$bench_dir" && go build -buildvcs=false -o "$build/campaignbench" .)
exec "$build/campaignbench" -workdir "$build" "$@"
