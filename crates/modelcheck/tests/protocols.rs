//! Exhaustive interleaving checks of the lock-free core's protocols.
//!
//! Compiled (and meaningful) only under `--cfg spitfire_modelcheck`,
//! which switches `spitfire-sync`'s primitives onto the instrumented
//! facade; run with:
//!
//! ```text
//! RUSTFLAGS='--cfg spitfire_modelcheck' cargo test -p spitfire-modelcheck
//! ```
//!
//! Every test explores the *entire* (partial-order-reduced) state space
//! of its scenario: `assert_pass` also fails on `BoundExceeded`, so a
//! green test really is a proof over the model, not a sample.

#![cfg(spitfire_modelcheck)]

mod common;

use spitfire_modelcheck::Checker;

#[test]
fn pinword_quiescence_exhaustive() {
    let report = Checker::new().check(common::pin_quiescence).assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn pin_locked_vs_fast_path_exhaustive() {
    let report = Checker::new()
        .check(common::pin_locked_vs_fast_path)
        .assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn pinword_open_publishes_payload_exhaustive() {
    let report = Checker::new().check(common::pin_open_payload).assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn pinword_eviction_vs_fetch_fast_exhaustive() {
    let report = Checker::new()
        .check(common::pin_eviction_frame_reuse)
        .assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn shadow_copy_no_lost_update_exhaustive() {
    let report = Checker::new()
        .check(common::shadow_copy_no_lost_update)
        .assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn shadow_retire_after_quiescence_exhaustive() {
    let report = Checker::new()
        .check(common::shadow_retire_after_quiescence)
        .assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn version_latch_read_vs_write_exhaustive() {
    let report = Checker::new()
        .check(common::version_latch_read_vs_write)
        .assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn concurrent_map_read_lock_upgrade_exhaustive() {
    let report = Checker::new()
        .check(common::map_get_or_insert)
        .assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn striped_counter_merge_exhaustive() {
    let report = Checker::new().check(common::counter_merge).assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn bitmap_touch_vs_sweep_exhaustive() {
    let report = Checker::new()
        .check(common::bitmap_touch_sweep)
        .assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}

#[test]
fn oldest_reader_rule_exhaustive() {
    let report = Checker::new()
        .check(common::oldest_reader_rule(common::TxnOrdering::Shipped))
        .assert_pass();
    assert!(report.executions > 1, "scenario has no concurrency");
}
