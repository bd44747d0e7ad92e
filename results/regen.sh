#!/usr/bin/env bash
# Rebuilds the deterministic sections of results/figures.txt (about two
# minutes): every bin below prints the same bytes for the same code, so
# `git diff --exit-code results/figures.txt` after this script is the
# workspace-wide "no simulated quantity moved" check CI runs.
#
# fig1 at paper scale takes > 10 min; its section is carried over verbatim
# under a header naming the commit it was captured at. Refresh it by hand
# with `cargo run --release -p spc-bench --bin fig1` and update that header.
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(table1 fig2 fig4 fig5 fig6 fig7 fig8 fig9 fig10)
out=results/figures.txt

cargo build --release -p spc-bench $(printf -- '--bin %s ' "${bins[@]}")

archived=$(sed -n '/^### fig1 (archived/,$p' "$out")
[ -n "$archived" ] || { echo "$out: no '### fig1 (archived' section to carry over" >&2; exit 1; }

tmp=$(mktemp "$out.XXXXXX")
trap 'rm -f "$tmp"' EXIT
{
    for b in "${bins[@]}"; do
        echo "### $b"
        "${CARGO_TARGET_DIR:-target}/release/$b"
    done
    printf '%s\n' "$archived"
} > "$tmp"
mv "$tmp" "$out"
trap - EXIT
