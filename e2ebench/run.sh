#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload kv-call --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temporary files and traced runs' span
# files all stay under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --spans-dir "$out/spans" "$@"
