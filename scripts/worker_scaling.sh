#!/usr/bin/env bash
# Measured worker curves of the repository benchmark: fig5_exact,
# fig5_fused and trace_long at EMISSARY_JOBS=1, 2 and 4, one run per
# seed (7, 8 and 9, the build bench/e2e/run.sh makes), printed as the
# table committed in results/worker_scaling.txt. Run from the
# repository root on an idle host:
#
#   bash scripts/worker_scaling.sh > results/worker_scaling.txt
#
# Each row is the median over the seeds with the min-max range next
# to it: one run per row moved a 4-worker speedup by 0.6x between two
# runs minutes apart. The job counts of a seed run back to back, so a
# slow spell of the host lands on neighbouring rows alike. A 1-job run
# lasts 60 s, the others 30 s: a 1-job op is up to four times longer,
# and 30 s held too few of them (about 10 of trace_long's) for a
# steady median.
#
# fig5_exact runs one Fig. 5 row's 13 cells per op, so its workers
# share cells; fig5_fused runs four rows per op, each a timing pass
# and then its monitor lanes' replays, so its workers share passes
# and lanes; trace_long runs one T = 4 time-chunked single run per
# op, so its workers share the chunks of one run.
set -euo pipefail

cd "$(dirname "$0")/.."
seeds="7 8 9"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# The value of end-to-end metric $1 in the result line on stdin.
metric() {
    grep -o "\"$1\":{\"value\":[^,}]*" | sed 's/.*://'
}

for workload in fig5_exact fig5_fused trace_long; do
    for seed in $seeds; do
        for jobs in 1 2 4; do
            seconds=$((jobs == 1 ? 60 : 30))
            line="$(EMISSARY_JOBS=$jobs bash bench/e2e/run.sh \
                --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 --out "$out" \
                2>/dev/null | tail -1)"
            echo "$workload $jobs $(metric ref_minst_per_s <<<"$line")" \
                "$(metric ref_op_p50_ms <<<"$line")"
        done
    done
done >"$out/rows"

echo "# Worker curves: bash scripts/worker_scaling.sh"
echo "# $(nproc) vCPUs ($(uname -m)), $(date -u +%F), Release build," \
    "seeds ${seeds// /, }, one run per seed and row (60 s at 1 job," \
    "30 s at 2 and 4)."
echo "# Each value is the median over the seeds, [min-max] next to it."
echo "# speedup = median ref_minst_per_s over the same workload's at 1 job."
sort -k1,1 -k2,2n "$out/rows" | awk '
    function isort(a, k,    i, t, x) {
        for (i = 2; i <= k; ++i)
            for (x = i; x > 1 && a[x - 1] > a[x]; --x) {
                t = a[x]; a[x] = a[x - 1]; a[x - 1] = t
            }
    }
    function flush(    mid) {
        if (n == 0) return
        isort(m, n); isort(p, n); mid = int((n + 1) / 2)
        if (j == 1) base = m[mid]
        printf "%-11s %4d %15.2f  %-13s %13.1f  %-15s %6.2fx\n", w, j,
            m[mid], sprintf("[%.2f-%.2f]", m[1], m[n]), p[mid],
            sprintf("[%.1f-%.1f]", p[1], p[n]), m[mid] / base
        n = 0
    }
    BEGIN {
        printf "%-11s %4s %15s  %-13s %13s  %-15s %7s\n", "workload",
            "jobs", "ref_minst_per_s", "[min-max]", "ref_op_p50_ms",
            "[min-max]", "speedup"
    }
    $1 != w || $2 != j { flush(); w = $1; j = $2 }
    { m[++n] = $3; p[n] = $4 }
    END { flush() }'
