//! An interrupted Fig. F prints only the scenarios whose grids completed:
//! a scenario cut short by cancellation gets no row, rather than one
//! averaged over the mixes that happened to finish.
//!
//! This is its own test binary because the cancel token the figure runs
//! under is process-wide, and once tripped it stays tripped.

use experiments::exec::set_thread_override;
use experiments::figures::fig_fault_degradation;
use experiments::global_cancel_token;

/// Small enough for a debug build; the rows only need to be well defined.
const INSTR: u64 = 2_000;

#[test]
fn interrupted_fault_figure_withholds_the_unfinished_scenario() {
    // One worker makes "which cells finished" a function of the count.
    set_thread_override(1);
    let whole = fig_fault_degradation(INSTR);
    assert_eq!(whole.rows.len(), 5, "one row per fault scenario");

    // Cancel halfway through the second scenario's grid: every mix runs
    // three policy variants.
    let cells_per_scenario = workloads::bandwidth_sensitive().len() * 3;
    global_cancel_token().cancel_after(cells_per_scenario + cells_per_scenario / 2);
    let cut = fig_fault_degradation(INSTR);

    assert!(global_cancel_token().is_cancelled());
    assert_eq!(
        cut.rows.len(),
        1,
        "only the finished scenario may print a row: {:?}",
        cut.rows
    );
    assert_eq!(cut.rows[0], whole.rows[0]);
}
