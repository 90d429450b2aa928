#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it there.
#
#   bash perfbench/run.sh --workload field|roam|bridged --seed N --seconds S --trace 0|1
#
# Every build and run artifact stays under .bench_build/ at the root of
# the checkout: the Go build cache, temporary files, the binary and the
# traced run's spans and profile.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
