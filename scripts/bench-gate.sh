#!/usr/bin/env bash
# The perf gate: a same-host A/B of the repo's benchmark (npbench,
# BENCHMARK.json) between a parent commit and this checkout.
#
#   scripts/bench-gate.sh [parent-ref]      # default HEAD^
#
# Builds the parent's npbench in a git worktree and this checkout's in
# place, runs `npbench --all` on each side, then `npbench --compare
# parent.json change.json`: every end-to-end metric of every workload
# against the bound BENCHMARK.json fixes for it. Exits non-zero if a row
# is `regressed`. Both sides run on this machine within minutes of each
# other, so no number from another host or another day is involved.
#
# The sides run as two blocks (parent, then change), not as alternating
# pairs: host_cal_per_packet is calibration-normalised, and the drift
# between two blocks minutes apart (~10 % at these short runs) stays
# inside a 25 % bound. A PR that *claims* a gain still owes ten
# alternating pairs (DESIGN.md "Perf gate").
set -euo pipefail

[ $# -le 1 ] || { echo "usage: $0 [parent-ref]" >&2; exit 2; }
parent_ref=${1:-HEAD^}

# Untraced runs per workload (consecutive seeds) and seconds measured
# per run: both sides, builds included, take ~4 min on the 2-core perf
# host.
RUNS=5
RUN_SECONDS=3

root=$(git rev-parse --show-toplevel)
cd "$root"
out=results/bench-gate
mkdir -p "$out"

parent_tree=$(mktemp -d)
trap 'git worktree remove --force "$parent_tree"' EXIT
git worktree add --quiet --detach "$parent_tree" "$parent_ref"

cargo build --release --quiet --offline --manifest-path "$parent_tree/npbench/Cargo.toml"
cargo build --release --quiet --offline --manifest-path npbench/Cargo.toml

# npbench writes its span trace under ./results/npbench, so each side
# runs from its own checkout.
(cd "$parent_tree" && ./npbench/target/release/npbench --all \
    --runs "$RUNS" --seconds "$RUN_SECONDS" --out "$root/$out/parent.json")
./npbench/target/release/npbench --all \
    --runs "$RUNS" --seconds "$RUN_SECONDS" --out "$out/change.json"

status=0
./npbench/target/release/npbench --compare "$out/parent.json" "$out/change.json" \
    > "$out/compare.md" || status=$?
cat "$out/compare.md"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "## npbench: $(git rev-parse --short "$parent_ref") (a) vs this checkout (b)"
        cat "$out/compare.md"
    } >> "$GITHUB_STEP_SUMMARY"
fi
exit "$status"
