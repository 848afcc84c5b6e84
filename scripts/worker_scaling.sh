#!/usr/bin/env bash
# Measured worker curves of the repository benchmark: one 30 s run of
# fig5_exact and of trace_long at EMISSARY_JOBS=1, 2 and 4 (seed 7,
# the build bench/e2e/run.sh makes), printed as the table committed in
# results/worker_scaling.txt. Run from the repository root on an idle
# host:
#
#   bash scripts/worker_scaling.sh > results/worker_scaling.txt
#
# fig5_exact runs one Fig. 5 row's 13 cells per op, so its workers
# share cells; trace_long runs one T = 4 time-chunked single run per
# op, so its workers share the chunks of one run.
set -euo pipefail

cd "$(dirname "$0")/.."
seed=7
seconds=30
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# The value of end-to-end metric $1 in the result line on stdin.
metric() {
    grep -o "\"$1\":{\"value\":[^,}]*" | sed 's/.*://'
}

echo "# Worker curves: bash scripts/worker_scaling.sh"
echo "# $(nproc) vCPUs ($(uname -m)), $(date -u +%F), Release build," \
    "seed $seed, one ${seconds} s run per row."
echo "# speedup = ref_minst_per_s over the same workload at 1 job."
printf '%-11s %4s %15s %13s %9s %7s\n' workload jobs \
    ref_minst_per_s ref_op_p50_ms attempted speedup
for workload in fig5_exact trace_long; do
    base=""
    for jobs in 1 2 4; do
        line="$(EMISSARY_JOBS=$jobs bash bench/e2e/run.sh \
            --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 --out "$out" 2>/dev/null |
            tail -1)"
        minst="$(metric ref_minst_per_s <<<"$line")"
        p50="$(metric ref_op_p50_ms <<<"$line")"
        attempted="$(grep -o '"attempted":[0-9]*' <<<"$line" |
            sed 's/.*://')"
        base="${base:-$minst}"
        awk -v w="$workload" -v j="$jobs" -v m="$minst" -v p="$p50" \
            -v a="$attempted" -v b="$base" 'BEGIN {
                printf "%-11s %4d %15.2f %13.1f %9d %6.2fx\n",
                    w, j, m, p, a, m / b }'
    done
done
