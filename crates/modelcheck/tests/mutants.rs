//! Mutation kill tests: evidence the model checker has teeth.
//!
//! Each test activates one seeded mutation — a deliberately broken
//! variant of a protocol, compiled behind `cfg(spitfire_modelcheck)` in
//! `spitfire-sync` — and asserts the explorer *finds* the bug
//! (`assert_fail`). A checker that passed the protocols but also passed
//! these mutants would be vacuous; CI runs both. Protocols modelled in the
//! test body itself (the MVTO oldest-reader rule) carry their broken
//! variants as a parameter of the body instead.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS='--cfg spitfire_modelcheck' cargo test -p spitfire-modelcheck
//! ```

#![cfg(spitfire_modelcheck)]

mod common;

use spitfire_modelcheck::{Checker, Mutation};

#[test]
fn open_without_release_is_killed() {
    let failure = Checker::new()
        .mutation(Mutation::PinOpenRelaxed)
        .check(common::pin_open_payload)
        .assert_fail();
    assert!(
        failure.message.contains("payload store"),
        "{}",
        failure.message
    );
}

#[test]
fn close_without_acquire_is_killed() {
    // The weakened close no longer synchronizes with the draining unpin:
    // the transition's page write races the reader's page read.
    let failure = Checker::new()
        .mutation(Mutation::PinCloseRelaxed)
        .check(common::pin_quiescence)
        .assert_fail();
    assert!(failure.message.contains("data race"), "{}", failure.message);
}

#[test]
fn unpin_without_release_is_killed() {
    let failure = Checker::new()
        .mutation(Mutation::PinUnpinRelaxed)
        .check(common::pin_quiescence)
        .assert_fail();
    assert!(failure.message.contains("data race"), "{}", failure.message);
}

#[test]
fn blind_pin_is_killed() {
    // Check-then-increment lets a pin land after close() observed zero:
    // the reader holds a "pin" on a frame being rewritten.
    Checker::new()
        .mutation(Mutation::PinBlindPin)
        .check(common::pin_eviction_frame_reuse)
        .assert_fail();
}

#[test]
fn blind_pin_breaks_quiescence_too() {
    Checker::new()
        .mutation(Mutation::PinBlindPin)
        .check(common::pin_quiescence)
        .assert_fail();
}

#[test]
fn split_pin_locked_is_killed() {
    // The load-then-store loses a fast-path pin that lands between them:
    // the closer trusts a zero count while the mutex-path pinner still
    // reads the page it retires.
    let failure = Checker::new()
        .mutation(Mutation::PinLockedSplit)
        .check(common::pin_locked_vs_fast_path)
        .assert_fail();
    assert!(failure.message.contains("data race"), "{}", failure.message);
}

#[test]
fn torn_bitmap_set_is_killed() {
    Checker::new()
        .mutation(Mutation::BitmapSetSplit)
        .check(common::bitmap_touch_sweep)
        .assert_fail();
}

#[test]
fn torn_counter_add_is_killed() {
    let failure = Checker::new()
        .mutation(Mutation::CounterAddSplit)
        .check(common::counter_merge)
        .assert_fail();
    assert!(failure.message.contains("lost"), "{}", failure.message);
}

#[test]
fn shadow_skip_version_check_is_killed() {
    // Without the post-drain version re-check, a writer that stores,
    // bumps, and unpins inside the copy window goes unnoticed and the
    // stale snapshot commits.
    let failure = Checker::new()
        .mutation(Mutation::ShadowSkipVersionCheck)
        .check(common::shadow_copy_no_lost_update)
        .assert_fail();
    assert!(failure.message.contains("stale"), "{}", failure.message);
}

#[test]
fn blind_pin_breaks_shadow_retirement_too() {
    // Check-then-increment lets a reader's pin land after shadow_commit's
    // internal close() claimed quiescence: the source-frame retirement
    // races the reader's page access. (PinCloseRelaxed, by contrast, is
    // NOT killed through this path: the post-drain version re-check's
    // Acquire load recovers the unpin edge via the close RMW's release
    // sequence — shadow_commit is redundantly safe against it.)
    Checker::new()
        .mutation(Mutation::PinBlindPin)
        .check(common::shadow_retire_after_quiescence)
        .assert_fail();
}

#[test]
fn map_upgrade_without_recheck_is_killed() {
    let failure = Checker::new()
        .mutation(Mutation::MapUpgradeNoRecheck)
        .check(common::map_get_or_insert)
        .assert_fail();
    assert!(
        failure.message.contains("descriptor"),
        "{}",
        failure.message
    );
}

#[test]
fn latch_unlock_without_release_is_killed() {
    let failure = Checker::new()
        .mutation(Mutation::LatchUnlockRelaxed)
        .check(common::version_latch_read_vs_write)
        .assert_fail();
    assert!(failure.message.contains("torn pair"), "{}", failure.message);
}

#[test]
fn timestamp_before_lock_is_killed() {
    // An older writer draws its timestamp, the younger reader begins and
    // finds itself first in `active`, then the writer inserts and validates.
    let failure = Checker::new()
        .check(common::oldest_reader_rule(
            common::TxnOrdering::TimestampBeforeLock,
        ))
        .assert_fail();
    assert!(failure.message.contains("oldest"), "{}", failure.message);
}

#[test]
fn retire_before_validation_is_killed() {
    // The writer leaves `active`, the younger reader finds itself first,
    // then the writer validates.
    let failure = Checker::new()
        .check(common::oldest_reader_rule(
            common::TxnOrdering::RetireBeforeValidation,
        ))
        .assert_fail();
    assert!(failure.message.contains("oldest"), "{}", failure.message);
}

/// The mutations are seeded into `spitfire-sync` behind runtime switches;
/// with no mutation active the same bodies must still pass (guards
/// against a hook that accidentally fires unconditionally).
#[test]
fn no_mutation_means_no_bug() {
    Checker::new().check(common::pin_quiescence).assert_pass();
    Checker::new()
        .check(common::version_latch_read_vs_write)
        .assert_pass();
    Checker::new()
        .check(common::oldest_reader_rule(common::TxnOrdering::Shipped))
        .assert_pass();
}
