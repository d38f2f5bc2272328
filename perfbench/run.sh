#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload skew-drift --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache) stays under .bench_build in
# the checkout, and the build never touches the network.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
