#!/usr/bin/env bash
# The benchmark's one command: build bench/ against the checkout it sits
# in, then run it with the given arguments. Everything the build writes
# (Go build cache, module cache, temporary files, telemetry) goes under
# .bench_build/ in the checkout; nothing is read or written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/cdnbench" .
)
cd "$root"
exec "$build/cdnbench" "$@"
