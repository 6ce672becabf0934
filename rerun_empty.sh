#!/bin/bash
# Re-runs the long-budget experiments from the prebuilt dapctl. Honors
# DAP_THREADS like run_experiments.sh; fails loudly if dapctl is missing
# or a figure exits non-zero.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p experiment_results
if [[ ! -x ./target/release/dapctl ]]; then
    echo "error: ./target/release/dapctl not built (run: cargo build --release --offline)" >&2
    exit 1
fi
for t in table1_w_e_sensitivity:600000 fig09_mm_technology:600000 fig10_capacity_bandwidth:600000 \
         fig11_related_proposals:600000 fig12_all_workloads:600000 fig13_sixteen_cores:600000 \
         fig14_alloy:600000 fig15_edram:600000 ablation_thread_aware:600000 \
         ablation_write_batch:600000 ablation_prefetch_degree:600000 ext_os_visible:600000; do
    id="${t%%:*}"; budget="${t##*:}"
    echo "== $id (budget $budget)"
    DAP_INSTRUCTIONS=$budget ./target/release/dapctl fig "$id" > "experiment_results/$id.txt"
done
echo all done
