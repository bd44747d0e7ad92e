#!/usr/bin/env bash
# Builds the benchmark (release) and runs it; see README.md.
#
#   run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
#   run.sh --check
#   run.sh compare BASE_FILE.. -- NEW_FILE..
#
# Runs from the root of the checkout, so a relative CARGO_TARGET_DIR means
# what the caller meant and the traced run writes under benchmark/out.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [[ "${1:-}" == compare ]]; then
  shift
  exec python3 benchmark/compare.py "$@"
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/spc-benchmark" --out benchmark/out "$@"
