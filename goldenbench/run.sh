#!/usr/bin/env bash
# Builds goldenbench from the checkout's sources and runs it.
#
#   bash goldenbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The binary, the Go build cache and the
# compiler's scratch files stay under .bench_build/ in the checkout; the
# build uses the local toolchain only and never fetches anything.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/goldenbench" && go build -o "$out/goldenbench" .) >&2
exec "$out/goldenbench" "$@"
