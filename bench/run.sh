#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#	bash bench/run.sh --workload routed-hit --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so a run reads and writes nothing
# outside the checkout. The benchmark is its own Go module that replaces
# gpudvfs with the parent directory; without the repository around it the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd bench && go build -buildvcs=false -trimpath -o "$build/gpudvfs-bench" .)
exec "$build/gpudvfs-bench" "$@"
