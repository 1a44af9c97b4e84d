#!/usr/bin/env bash
# Builds paceserve, genexperiments and the perfbench command from the
# checkout in the current directory, then runs perfbench with the given
# arguments. Every build and run artifact stays under .bench_build/.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
for need in go.mod cmd/paceserve cmd/genexperiments; do
	if [ ! -e "$root/$need" ]; then
		echo "run.sh: $need not found; run from the root of a pacesweep checkout" >&2
		exit 1
	fi
done

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/home/.config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
# With telemetry on (the default is "local"), the go command forks a
# detached sidecar that outlives the build; turning it off keeps every
# process this script starts inside its lifetime.
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/paceserve ./cmd/genexperiments >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
