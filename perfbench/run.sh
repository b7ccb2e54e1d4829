#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. All
# arguments pass through to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload ctr-4k-tensors --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .perfbench_build/ at the checkout root, so nothing is written outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.perfbench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
