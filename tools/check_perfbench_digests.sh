#!/usr/bin/env bash
# Simulated-output guard at benchmark scale: runs each perfbench workload
# once, traced, and requires that it
#   - exits 0 and prints "checks: all passed",
#   - replays its recorded flows with net.replay_mismatches 0,
#   - reproduces its pinned record digest ("digest full"), and
#   - schedules exactly its pinned sim.events_scheduled and peaks at
#     exactly its pinned sim.peak_heap (read from the JSON result line).
# The digest covers every InvocationRecord of a window, so any moved
# completion, latency or count changes it. The paper goldens cover the
# figure grids at smoke size; this covers Montage-2k, whose storage NIC
# carries up to 1,327 concurrent flows. The two work counts follow the
# code, not the host (two --seconds 1 runs and one --seconds 3 run gave
# the same values), so a change that brings back a per-release event,
# such as one keep-alive check per container release, fails here even
# when no simulated output moves.
#
# Each PINS entry is workload=digest/events_scheduled/peak_heap. A
# declared model change re-pins the digest on the PINS line below, and
# nothing else; a change that moves a work count re-pins that count on
# the same line and lists old -> new in CHANGES.md.
#
# Usage: tools/check_perfbench_digests.sh   (from the repo root; builds
# perfbench through perfbench/run.py on first use)
set -u

PINS="montage=3c3fff577eae33fc/126642/674 paper_sweep=1cab9cacaa14631c/1529279/87 tenants=6165b1a0f67f284d/946815/216"

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
fail=0
# count REPORT METRIC: the exact value of a count metric, read from the
# report's last (JSON) line; the text table rounds counts of a million
# and more.
count() {
    python3 -c 'import json, sys
print(int(json.loads(sys.stdin.readlines()[-1])["metrics"][sys.argv[1]]["value"]))' \
        "$2" <"$1" 2>/dev/null || echo missing
}

for pin in $PINS; do
    workload=${pin%%=*}
    IFS=/ read -r want want_scheduled want_heap <<<"${pin#*=}"
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
    scheduled=$(count "$out" sim.events_scheduled)
    heap=$(count "$out" sim.peak_heap)
    if [ "$scheduled" != "$want_scheduled" ]; then
        echo "$workload: sim.events_scheduled is '$scheduled', pinned $want_scheduled"
        bad=1
    fi
    if [ "$heap" != "$want_heap" ]; then
        echo "$workload: sim.peak_heap is '$heap', pinned $want_heap"
        bad=1
    fi
    if [ "$bad" = 0 ]; then
        echo "$workload: digest $got, $scheduled events scheduled," \
            "peak heap $heap, 0 replay mismatches"
    else
        fail=1
    fi
done
exit "$fail"
