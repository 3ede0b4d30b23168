#!/bin/sh
# Builds the campaign benchmark from the source tree it sits in and runs
# it with the given arguments, for example:
#
#   sh perfbench/run.sh --workload table1-sampled --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write goes under .bench_build/ in that directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
