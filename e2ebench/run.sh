#!/usr/bin/env bash
# Builds the server and the benchmark from this checkout's sources, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload dev-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run records stay in .bench_build.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/nl2sql-server || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/nl2sql-server and e2ebench/ must be present)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/bin"
# Temporary files of the builds, the benchmark and the server stay inside
# the checkout, and so do the go command's cache and telemetry.
export TMPDIR="$out/tmp"
gobuild() {
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" \
		GOTOOLCHAIN=local go build "$@" >&2
}
gobuild -o "$out/bin/nl2sql-server" ./cmd/nl2sql-server
(cd e2ebench && gobuild -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -server "$out/bin/nl2sql-server" -out "$out/e2ebench" "$@"
