#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags,
# for example:
#
#   bash perfbench/run.sh --workload compile-lp --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# span files stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
