#!/usr/bin/env bash
# Include-guard lint: every header's guard must be derived from its
# repo-relative path (src/ stripped), i.e. src/common/campaign.h ->
# FAASFLOW_COMMON_CAMPAIGN_H_, bench/sections.h ->
# FAASFLOW_BENCH_SECTIONS_H_. Path-derived guards are unique by
# construction, so a stale copy-pasted guard (the bench/campaign.h shim
# bug class: two headers sharing one guard silently empty-include) is
# caught here and in CI.
#
# Usage: tools/lint_include_guards.sh   (from the repo root)
set -u

fail=0
for header in $(find src bench -name '*.h' | LC_ALL=C sort); do
    rel="${header#src/}"
    expected="FAASFLOW_$(echo "${rel%.h}" | tr '[:lower:]/' '[:upper:]_')_H_"
    first=$(grep -m1 '^#ifndef ' "$header" | awk '{print $2}')
    define=$(grep -m1 '^#define ' "$header" | awk '{print $2}')
    if [ -z "$first" ]; then
        echo "FAIL $header: no include guard (#ifndef) found"
        fail=1
    elif [ "$first" != "$expected" ]; then
        echo "FAIL $header: guard is $first, expected $expected"
        fail=1
    elif [ "$define" != "$expected" ]; then
        echo "FAIL $header: #define $define does not match #ifndef $first"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "include-guard lint failed"
    exit 1
fi
echo "include-guard lint: ok"
