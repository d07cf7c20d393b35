#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout; every file it writes (Go build cache, binary, waldisk data,
# span files) stays under .bench_build there:
#
#   bash ocbbench/run.sh --workload ocb-paged-spill --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOFLAGS= \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$src" && go build -o "$out/ocbbench" .) >&2
exec "$out/ocbbench" -data "$out/data" "$@"
