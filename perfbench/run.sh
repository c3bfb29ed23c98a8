#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fullsys --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the span files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR"
# The code under test: the git commit in a repository checkout, else a
# digest of the module's sources (a benchmark checkout need not be a
# repository).
if [ -d "$root/.git" ]; then
	commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null \
		git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
else
	commit=src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
fi
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ref "$here/ref" -out "$out/spans" -commit "$commit" "$@"
