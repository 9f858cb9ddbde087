#!/usr/bin/env bash
# Builds fbserve and the session benchmark from this checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-small --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --list
#
# Every build artifact, prepared input and trace file lands under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/fbserve" ]]; then
  echo "perfbench: $root holds no fbserve sources (go.mod, cmd/fbserve); run from the repository root" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# With telemetry in its default local mode, the go command forks a detached
# upload process that can outlive this script. Turn it off for this config
# directory before the first go command runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

# The root module vendors its dependencies; the benchmark module resolves
# the root module through a local replace and needs no module cache.
go build -o "$out/bin/fbserve" ./cmd/fbserve >&2
(cd perfbench && go build -mod=mod -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -fbserve "$out/bin/fbserve" "$@"
