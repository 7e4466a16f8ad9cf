//! Regression: a job whose tree exited on a node that then crashed and
//! restarted, while the job kept running elsewhere. Its completion and
//! end time must come from the exit stamps taken at the crash, not from
//! the restarted node's fresh task table (which once panicked with an
//! out-of-bounds pid).

use hpl_torture::{check_scenario, Scenario};

#[test]
fn seed9_scenario197_crash_after_tree_exit_is_clean() {
    let failures = check_scenario(&Scenario::sample(9, 197));
    assert!(
        failures.is_empty(),
        "{:?}",
        failures.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );
}
