#!/usr/bin/env bash
# Builds the cost-per-verdict benchmark from the sources of the checkout it is
# run in, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload tvla-gang --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, binary, scratch job stores, span files).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/home"
# HOME and XDG_CONFIG_HOME keep the go command's telemetry and config inside
# the checkout; GOPROXY=off and GOTOOLCHAIN=local keep the build offline.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
