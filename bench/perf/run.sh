#!/usr/bin/env bash
# Builds the benchmark driver and runs it from the repository root. The Go
# build cache, GOPATH and HOME all point inside the checkout's .bench_build
# directory, so a run reads and writes nothing outside the checkout. The
# first run in a checkout compiles the standard library into that cache.
#
#   bash bench/perf/run.sh --workload warm-fit --seed 1 --seconds 12 --trace 0
#   bash bench/perf/run.sh all -runs 5 -out A.json
#   bash bench/perf/run.sh compare A.json B.json
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"

export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
unset XDG_CACHE_HOME XDG_CONFIG_HOME

(cd "$here" && go build -o "$build/bin/perf" .)
cd "$root"
exec "$build/bin/perf" "$@"
