#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the root of the repository:
#
#	bash perfbench/run.sh --workload request-reply --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command also keeps its settings and telemetry under the user's
# config directory; point that inside .bench_build/ too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false TMPDIR="$out/tmp"

# The commit is recorded only when the root itself is a git checkout.
commit=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD)
	if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
		commit="$commit+dirty"
	fi
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" --dir "$out" "$@"
