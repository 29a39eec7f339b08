#!/usr/bin/env bash
# Builds ratsd and the perfbench driver from the checkout this is run in,
# then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ under that root, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ratsd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ratsd and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"

go build -o "$out/ratsd" ./cmd/ratsd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ratsd "$out/ratsd" -out "$out" "$@"
