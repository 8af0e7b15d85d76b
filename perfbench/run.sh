#!/usr/bin/env bash
# Builds multihitd and the perfbench program from the checkout's sources,
# then runs one benchmark workload against the daemon:
#
#   bash perfbench/run.sh --workload brca4_dense --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build and run artifact stays in
# .bench_build/ under the root: the Go build cache, the binaries, each
# run's daemon data directory, and the traced run's span files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/multihitd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/multihitd and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/home" "$out/perfbench"

# Keep the toolchain's caches, temp files and telemetry inside the
# checkout, and never reach for the network.
build_env=(
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
)
env "${build_env[@]}" go build -o "$out/bin/multihitd" ./cmd/multihitd
(cd perfbench && env "${build_env[@]}" go build -o "$out/bin/perfbench" .)

export TMPDIR="$out/gotmp"
exec "$out/bin/perfbench" -daemon "$out/bin/multihitd" -work "$out/perfbench" "$@"
