#!/usr/bin/env bash
# Builds the host-time benchmark from the sources in this checkout and runs
# it, passing every argument through:
#
#   bash perfbench/run.sh --workload superpage-coalesce --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes, Go's build cache
# included, stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
