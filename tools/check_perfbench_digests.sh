#!/usr/bin/env bash
# Simulated-output guard at benchmark scale: runs each perfbench workload
# once, traced, and requires that it
#   - exits 0 and prints "checks: all passed",
#   - replays its recorded flows with net.replay_mismatches 0, and
#   - reproduces its pinned record digest ("digest full").
# The digest covers every InvocationRecord of a window, so any moved
# completion, latency or count changes it. The paper goldens cover the
# figure grids at smoke size; this covers Montage-2k, whose storage NIC
# carries up to 1,327 concurrent flows.
#
# A declared model change re-pins the PINS line below, and nothing else.
#
# Usage: tools/check_perfbench_digests.sh   (from the repo root; builds
# perfbench through perfbench/run.py on first use)
set -u

PINS="montage=3c3fff577eae33fc paper_sweep=1cab9cacaa14631c tenants=c3d6828bf1c45e1e"

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
fail=0
for pin in $PINS; do
    workload=${pin%%=*}
    want=${pin#*=}
    out="$out_dir/$workload.txt"
    bad=0
    if ! python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace 1 >"$out"; then
        echo "$workload: perfbench failed"
        fail=1
        continue
    fi
    got=$(awk '$1 == "digest" && $2 == "full" { print $3 }' "$out")
    mismatches=$(awk '$1 == "net.replay_mismatches" { print $2 }' "$out")
    if ! grep -qx 'checks: all passed' "$out"; then
        echo "$workload: perfbench checks failed"
        grep '^checks' "$out"
        bad=1
    fi
    if [ "$mismatches" != "0" ]; then
        echo "$workload: net.replay_mismatches is '$mismatches', want 0"
        bad=1
    fi
    if [ "$got" != "$want" ]; then
        echo "$workload: digest full is '$got', pinned $want"
        bad=1
    fi
    if [ "$bad" = 0 ]; then
        echo "$workload: digest $got, 0 replay mismatches"
    else
        fail=1
    fi
done
exit "$fail"
