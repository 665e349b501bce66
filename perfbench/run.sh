#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with the
# given flags (see main.go). Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary and Go build cache) and the traced run's spans stay
# inside the checkout under .bench_build, or under $CARGO_TARGET_DIR when
# that is set.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# The Go toolchain's own state (build and module caches, telemetry
# counters, env file) is pointed into $out as well, and it never fetches
# modules.
GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
	go -C perfbench build -o "$out/perfbench" .
# The commit, when the checkout is a git work tree of its own.
commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit=$commit+modified
	fi
fi
BENCH_COMMIT=$commit exec "$out/perfbench" --spans "$out" "$@"
