#!/usr/bin/env bash
# Rebuilds the deterministic sections of results/figures.txt (about 95 s
# once built on a two-thread x86-64 host; fig8 and proposal are half of
# it): every section below prints the same bytes for the same code, so
# `git diff --exit-code results/figures.txt` after this script is the
# workspace-wide "no simulated quantity moved" check CI runs. Every bin
# under crates/bench/src/bin is a section here except `matching_gate`,
# whose counts CI checks against BENCH_matching.json.
#
# fig1 at paper scale takes > 10 min; its section is carried over verbatim
# under a header naming the commit it was captured at. Refresh it by hand
# with `cargo run --release -p spc-bench --bin fig1` and update that header.
# `fig1 --small` is the gated shape of the same study.
set -euo pipefail
cd "$(dirname "$0")/.."

# One section per entry: a bin name, then its arguments.
sections=(table1 "fig1 --small" fig2 fig4 fig5 fig6 fig7 fig8 fig9 fig10
          heater_micro ablation_sim replay latency proposal)
out=results/figures.txt

cargo build --release -p spc-bench $(printf -- '--bin %s ' "${sections[@]%% *}")

archived=$(sed -n '/^### fig1 (archived/,$p' "$out")
[ -n "$archived" ] || { echo "$out: no '### fig1 (archived' section to carry over" >&2; exit 1; }

tmp=$(mktemp "$out.XXXXXX")
trap 'rm -f "$tmp"' EXIT
{
    for s in "${sections[@]}"; do
        echo "### $s"
        read -r b args <<< "$s"
        # shellcheck disable=SC2086 # `args` splits into words on purpose
        "${CARGO_TARGET_DIR:-target}/release/$b" $args
    done
    printf '%s\n' "$archived"
} > "$tmp"
mv "$tmp" "$out"
trap - EXIT
