#!/bin/bash
# Regenerates every figure/table of the paper into experiment_results/.
#
# DAP_INSTRUCTIONS scales fidelity vs runtime (default per-figure budgets).
# DAP_THREADS sets the worker count of the parallel experiment executor
# (default: all available cores). Results are bit-identical at any thread
# count — see crates/experiments/tests/determinism.rs.
#
# Every figure runs through `dapctl fig <id>`. Fails loudly: any figure
# that exits non-zero aborts the whole run (`tee` runs under pipefail,
# and stderr is left on the terminal).
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p experiment_results
BUDGET="${DAP_INSTRUCTIONS:-1200000}"
SMALL=$((BUDGET / 2))
run() { # figure-id budget
    echo "== $1 (budget $2)"
    DAP_INSTRUCTIONS=$2 cargo run --release --offline -p dap-bench --bin dapctl -- fig "$1" \
        | tee "experiment_results/$1.txt"
    echo
}
run fig01_bw_vs_hitrate "$BUDGET"
run fig02_edram_capacity "$BUDGET"
run fig04_bw_sensitivity "$BUDGET"
run fig05_tag_cache "$BUDGET"
run fig06_dap_sectored "$BUDGET"
run fig07_decision_mix "$BUDGET"
run fig08_cas_fraction "$BUDGET"
run table1_w_e_sensitivity "$SMALL"
run fig09_mm_technology "$SMALL"
run fig10_capacity_bandwidth "$SMALL"
run fig11_related_proposals "$SMALL"
run fig12_all_workloads "$SMALL"
run fig13_sixteen_cores "$SMALL"
run fig14_alloy "$SMALL"
run fig15_edram "$SMALL"
run ablation_thread_aware "$SMALL"
run ablation_write_batch "$SMALL"
run ablation_prefetch_degree "$SMALL"
run ext_os_visible "$SMALL"
run ablation_refresh "$SMALL"
echo "all experiments complete"
