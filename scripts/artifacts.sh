#!/usr/bin/env bash
# Writes the byte-manifest artifacts into OUT_DIR, with the thread pool
# pinned to POOL threads.
#
#   scripts/artifacts.sh OUT_DIR POOL
#   (cd OUT_DIR && sha256sum -c "$REPO/ARTIFACTS.sha256")
#
# ARTIFACTS.sha256 records the SHA-256 of every file this script writes,
# and the bytes must not depend on POOL. The 19 artifacts:
#
# * `sixg-cli run` of klagenfurt, klagenfurt_flap, skopje, megacity and
#   continental: each run's --json report, and its stdout from a run
#   without --json (a run with --json prints a line naming the path);
# * `sixg-cli run --backend event --json` of klagenfurt, skopje and
#   megacity;
# * `sixg-cli sweep specs/sweeps/klagenfurt_cadence.json --json` (E20; the
#   E24 and E26 payloads are the same bytes);
# * the --json records of repro_faults (E22), repro_megasweep (E23) and
#   repro_colossal --min-rate 0 (E25; its throughput floor has a CI step
#   of its own);
# * repro_all's stdout and the experiments.json it writes.
#
# Left out: E19 (repro_crossval), whose record holds wall times.
#
# The sums hold on x86_64-linux-gnu only, like the golden table in
# tests/golden_repro.rs: ln, exp, sin and cos go through the host libm.
# A change that moves an artifact on purpose re-records its line and says
# why.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OUT_DIR POOL" >&2
    exit 2
fi
pool=$2
mkdir -p "$1"
out=$(cd "$1" && pwd)

cd "$(dirname "$0")/.."
cargo build --locked --release \
    --bin sixg-cli --bin repro_faults --bin repro_megasweep --bin repro_colossal --bin repro_all
bin=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)
export RAYON_NUM_THREADS=$pool

for spec in klagenfurt klagenfurt_flap skopje megacity continental; do
    "$bin/sixg-cli" run "specs/$spec.json" --threads "$pool" --json "$out/run_$spec.json" >/dev/null
    "$bin/sixg-cli" run "specs/$spec.json" --threads "$pool" >"$out/run_$spec.stdout"
done
for spec in klagenfurt skopje megacity; do
    "$bin/sixg-cli" run "specs/$spec.json" --backend event --threads "$pool" \
        --json "$out/event_$spec.json" >/dev/null
done
"$bin/sixg-cli" sweep specs/sweeps/klagenfurt_cadence.json --threads "$pool" \
    --json "$out/sweep_klagenfurt_cadence.json" >/dev/null
"$bin/repro_faults" --json "$out/e22_faults.json" >/dev/null
"$bin/repro_megasweep" --threads "$pool" --json "$out/e23_megasweep.json" >/dev/null
"$bin/repro_colossal" --min-rate 0 --json "$out/e25_colossal.json" >/dev/null
# repro_all writes experiments.json into its working directory.
(cd "$out" && "$bin/repro_all" >repro_all.stdout)
