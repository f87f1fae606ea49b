#!/usr/bin/env bash
# Builds this checkout's ccsd and the benchmark client, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 12 --trace 0
#
# Every build output and Go cache lives under .bench_build/ in the
# checkout, so nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ccsd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ccsd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
export CGO_ENABLED=0

go build -o "$out/ccsd" ./cmd/ccsd >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=unknown
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --ccsd "$out/ccsd" --state "$out/perfbench-state" --commit "$commit" "$@"
