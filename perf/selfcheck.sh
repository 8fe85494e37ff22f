#!/usr/bin/env bash
# The A/A test: two full ledgers of one commit must agree within the
# benchmark's own bounds, with every exact metric and every
# behaviour_digest identical. Run from anywhere; extra arguments go to
# both runs (e.g. `perf/selfcheck.sh --seed 2`). A ledger run exits 1 when
# one of its runs stayed noisy; the comparison is made all the same and
# names those runs.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$here/out"
mkdir -p "$out"
cd "$root"
cargo build --release --manifest-path perf/Cargo.toml
bin="${CARGO_TARGET_DIR:-perf/target}/release/perf"
"$bin" run --out "$out/selfcheck-a.json" "$@" > "$out/selfcheck-a.log" || [ $? -eq 1 ]
"$bin" run --out "$out/selfcheck-b.json" "$@" > "$out/selfcheck-b.log" || [ $? -eq 1 ]
"$bin" compare "$out/selfcheck-a.json" "$out/selfcheck-b.json" --bounds BENCHMARK.json
