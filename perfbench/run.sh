#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload sim-get --seed 1 --seconds 10 --trace 0
# Everything it writes (Go build cache, binary, span dumps, scratch WAL
# directories) stays under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export XDG_CONFIG_HOME="$out/config" # the go command's env file and telemetry
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

# Provenance: the commit when the checkout is a git work tree, otherwise a
# digest of the module's sources.
commit=""
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
	if [ -n "$commit" ] && [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		commit="$commit-dirty"
	fi
fi
if [ -z "$commit" ] && [ -f "$root/go.mod" ]; then
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT="${commit:-unknown}"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
