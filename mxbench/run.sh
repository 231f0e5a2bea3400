#!/usr/bin/env bash
# Builds mxbench from the sources in the current checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash mxbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache and the run's scratch files all stay under
# .bench_build/ in the checkout. Build output goes to standard error, so
# the last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
MXBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
export MXBENCH_COMMIT

(cd "$here" && go build -o "$build/mxbench" .) >&2
exec "$build/mxbench" "$@"
