#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout's root. Everything the build writes (binary, Go build and
# module caches) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOFLAGS=-modcacherw
go -C "$here" build -o "$out/presence-bench" .
exec "$out/presence-bench" "$@"
