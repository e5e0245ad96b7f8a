#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# root of the repository; every argument goes to e2e.exe, e.g.
#   bash bench/e2e/run.sh --workload fuzz --seed 1 --seconds 15 --trace 0
# Build output goes to stderr, so the last line of stdout stays the
# result object.
set -euo pipefail

# Keep the build inside the tree (no shared dune cache).
export DUNE_CACHE=disabled

if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi

"${dune[@]}" build --root . --display quiet bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
