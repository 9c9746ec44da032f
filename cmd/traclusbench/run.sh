#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from source, then runs the
# benchmark with the given flags. Run it from the repository root:
#
#   bash cmd/traclusbench/run.sh --workload build-fixed --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binaries,
# daemon data directories, temporary files) stays under .bench_build/ in the
# working directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/traclusd" || ! -f "$root/cmd/traclusbench/go.mod" ]]; then
	echo "traclusbench: run from the repository root (needs go.mod, cmd/traclusd and cmd/traclusbench)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

# A hermetic toolchain environment: no network, no user-level Go settings,
# no cgo, and no writes outside the working directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -C "$root/cmd/traclusbench" -o "$out/bin/traclusbench" .
go build -C "$root/cmd/traclusbench" -o "$out/bin/traclusd" repro/cmd/traclusd

exec "$out/bin/traclusbench" -traclusd "$out/bin/traclusd" "$@"
