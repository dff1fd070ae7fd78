#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, temporary files) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

# Build output goes to stderr so the result JSON stays the last line of stdout.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
