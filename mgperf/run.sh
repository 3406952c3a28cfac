#!/usr/bin/env bash
# Builds the mgperf benchmark from this checkout and runs one workload:
#
#   bash mgperf/run.sh --workload npb-W --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. Every file the Go toolchain
# writes (build cache, module cache, temporary files, the binaries) stays
# under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

if [ ! -f go.mod ] || ! grep -q '^module repro$' go.mod || [ ! -d internal ] || [ ! -d cmd/mgd ]; then
	echo "mgperf: run from the root of the repository (go.mod, internal/ and cmd/mgd/ must be here)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	echo "mgperf: the go toolchain is not on PATH" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home" "$build/tmp" "$build/bin"

export HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config
export XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export MGPERF_BUILD_DIR=$build

go -C mgperf build -o "$build/bin/mgperf" .
exec "$build/bin/mgperf" "$@"
