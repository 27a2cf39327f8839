//! Tests for version-chain vacuum, the recycle rule (a vacuumed slot is
//! reused only after the checkpoint that makes its cut durable), the
//! maintenance pass, and the dirty-page flush entry points.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{
    FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, PersistenceTracking, TimeScale,
    Trigger,
};
use spitfire_txn::{Database, DbConfig, TxnError, VacuumStats};

const PAGE: usize = 1024;
const DRAM: usize = 64 * PAGE;
const T: u32 = 1;
const TUPLE: usize = 100;

fn database() -> Database {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(DRAM)
        .nvm_capacity(256 * (PAGE + 64))
        .policy(MigrationPolicy::lazy())
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let db = Database::create(
        Arc::new(BufferManager::new(config).unwrap()),
        DbConfig::default(),
    )
    .unwrap();
    db.create_table(T, TUPLE).unwrap();
    db
}

fn write(db: &Database, key: u64, b: u8) {
    let mut t = db.begin();
    let payload = vec![b; TUPLE];
    match db.update(&mut t, T, key, &payload) {
        Ok(()) => {}
        Err(TxnError::NotFound) => db.insert(&mut t, T, key, &payload).unwrap(),
        Err(e) => panic!("{e}"),
    }
    db.commit(&mut t).unwrap();
}

#[test]
fn vacuum_frees_superseded_versions() {
    let db = database();
    // 20 keys, each updated 10 times: 200 versions, 180 garbage.
    for round in 0..10u8 {
        for key in 0..20u64 {
            write(&db, key, round);
        }
    }
    // Two keys that are never updated: no debt, so no walk.
    write(&db, 20, 0);
    write(&db, 21, 0);
    let stats = db.vacuum().unwrap();
    assert_eq!(stats.chains, 20, "the chains in debt, not the 22 keys");
    assert_eq!(stats.freed, 180, "every superseded version is unreachable");
    // Data is intact and chains still serve reads.
    let t = db.begin();
    for key in 0..20u64 {
        assert_eq!(db.read(&t, T, key).unwrap(), vec![9u8; TUPLE]);
    }
    // A second vacuum finds nothing in debt.
    assert_eq!(db.vacuum().unwrap(), VacuumStats::default());
}

#[test]
fn vacuum_respects_active_readers() {
    let db = database();
    write(&db, 1, 10);
    // A long-running reader pins the old version.
    let old_reader = db.begin();
    write(&db, 1, 20);
    write(&db, 1, 30);
    let stats = db.vacuum().unwrap();
    // Versions the old reader may still need survive: only chain segments
    // older than the watermark (the reader's ts) are freed — here the
    // version with value 10 is the newest committed before the reader, so
    // nothing below it exists and nothing newer may be freed.
    assert_eq!(db.read(&old_reader, T, 1).unwrap(), vec![10u8; TUPLE]);
    assert!(
        stats.freed == 0,
        "no version visible to the reader may be freed"
    );
    drop(old_reader);
    // Once the reader is gone (transactions auto-retire only on
    // commit/abort, so finish it properly in a fresh handle).
    let mut t = db.begin();
    db.commit(&mut t).unwrap();
}

#[test]
fn vacuum_recycles_slots_for_new_inserts() {
    let db = database();
    for round in 0..5u8 {
        write(&db, 7, round);
    }
    let before = db.vacuum().unwrap();
    assert_eq!(before.freed, 4);
    db.checkpoint().unwrap();
    assert_eq!(db.table_free_slots(T).unwrap().len(), 4);
    // After the checkpoint, new writes reuse the freed slots instead of
    // growing the table.
    for round in 0..4u8 {
        write(&db, 8 + round as u64, 0xAA);
    }
    assert_eq!(db.table_free_slots(T).unwrap(), Vec::<u64>::new());
    let t = db.begin();
    assert_eq!(db.read(&t, T, 7).unwrap(), vec![4u8; TUPLE]);
    for k in 8..12u64 {
        assert_eq!(db.read(&t, T, k).unwrap(), vec![0xAA; TUPLE]);
    }
}

#[test]
fn a_vacuum_with_no_checkpoint_after_it_frees_no_slot() {
    let db = database();
    for round in 0..5u8 {
        write(&db, 7, round);
    }
    assert_eq!(db.vacuum().unwrap().freed, 4);
    assert_eq!(db.table_free_slots(T).unwrap(), Vec::<u64>::new());
    // The next write grows the table instead.
    write(&db, 8, 0xAA);
    assert_eq!(db.table_free_slots(T).unwrap(), Vec::<u64>::new());
}

/// Vacuum → reuse → crash with no checkpoint in between: redo of the tail
/// past the generation re-links the keeper to the slot vacuum freed. Were
/// that slot reused, it would now hold another key's version, and the
/// first vacuum after recovery would walk from one chain into the other.
#[test]
fn a_recycled_slot_survives_a_crash_before_the_next_checkpoint() {
    let db = Arc::new(database());
    write(&db, 1, 1);
    write(&db, 2, 1);
    db.checkpoint().unwrap();
    write(&db, 1, 2);
    assert_eq!(db.vacuum().unwrap().freed, 1);
    write(&db, 2, 2);
    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!((stats.snapshot_generation, stats.redone), (1, 2));

    // A walk that never ends must fail the test, not hang it: the helper
    // is joined only once it has signalled (or died).
    let (done, finished) = mpsc::channel();
    let helper = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.vacuum().unwrap();
            let mut t = db.begin();
            let values = [1, 2].map(|key| db.read(&t, T, key).unwrap());
            db.commit(&mut t).unwrap();
            let _ = done.send(());
            values
        })
    };
    let outcome = finished.recv_timeout(Duration::from_secs(10));
    assert_ne!(
        outcome,
        Err(mpsc::RecvTimeoutError::Timeout),
        "vacuum or read-back after recovery did not return within 10 s"
    );
    let values = helper.join().unwrap();
    assert_eq!(values, [vec![2u8; TUPLE], vec![2u8; TUPLE]]);
}

#[test]
fn a_failed_checkpoint_releases_nothing_and_the_next_releases_in_vacuum_order() {
    let db = database();
    // Key 1 in rids 0 → 1 → 2; vacuum frees 1, then 0.
    for round in 0..3u8 {
        write(&db, 1, round);
    }
    assert_eq!(db.vacuum().unwrap().freed, 2);

    // Contended at the fence: nothing is sealed, nothing released.
    let mut open = db.begin();
    assert_eq!(db.checkpoint(), Err(TxnError::CheckpointContended));
    db.commit(&mut open).unwrap();
    assert_eq!(db.table_free_slots(T).unwrap(), Vec::<u64>::new());

    // Failed after the fence (no generation installs): the sealed slots
    // wait for the next checkpoint.
    let superblock = FaultRule::any(Trigger::Always, FaultKind::Fatal)
        .on_op(FaultOp::Write)
        .in_range(0, PAGE as u64);
    let plan = FaultPlan::new(3).rule(superblock);
    db.snapshots()
        .set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
    assert!(db.checkpoint().is_err());
    db.snapshots().set_fault_injector(None);
    assert_eq!(db.table_free_slots(T).unwrap(), Vec::<u64>::new());

    // Key 2 in fresh rids 3 → 4 → 5; vacuum frees 4, then 3.
    for round in 0..3u8 {
        write(&db, 2, round);
    }
    assert_eq!(db.vacuum().unwrap().freed, 2);
    db.checkpoint().unwrap();
    assert_eq!(db.table_free_slots(T).unwrap(), vec![1, 0, 4, 3]);
}

/// The slot `key`'s index entry names.
fn rid_of(db: &Database, key: u64) -> u64 {
    let entries = db.index_entries(T).unwrap();
    entries.into_iter().find(|&(k, _)| k == key).unwrap().1
}

/// An update of `key` that installs its version and then loses commit
/// validation to a later reader. Returns the aborted version's slot.
fn conflicting_abort(db: &Database, key: u64) -> u64 {
    let mut writer = db.begin();
    let mut reader = db.begin();
    db.update(&mut writer, T, key, &[0xAB; TUPLE]).unwrap();
    let slot = rid_of(db, key);
    db.read(&reader, T, key).unwrap();
    assert_eq!(db.commit(&mut writer), Err(TxnError::Conflict));
    db.commit(&mut reader).unwrap();
    slot
}

/// The database's `aborted_slots_retired` counter.
fn aborted_slots_retired(db: &Database) -> u64 {
    let mut report = spitfire_obs::Report::default();
    spitfire_obs::Source::report(db, &mut report);
    report.counters["aborted_slots_retired"]
}

/// The slot watermark the newest generation's manifest records for `T`.
fn allocated_slots(db: &Database) -> u64 {
    let store = db.snapshots();
    let manifest = store.load(store.generation(), |_, _| {}).unwrap();
    manifest.tables[0].allocated_slots
}

/// An aborted version's slot is retired like a vacuumed one: the
/// checkpoint after the aborts releases the slots and the next writes
/// take them, so conflicts do not grow the table.
#[test]
fn aborted_versions_give_their_slots_back() {
    const K: u64 = 8;
    let db = database();
    for key in 0..K {
        write(&db, key, 0);
    }
    let aborted: Vec<u64> = (0..K).map(|key| conflicting_abort(&db, key)).collect();
    assert_eq!(aborted_slots_retired(&db), K);
    db.checkpoint().unwrap();
    let before = allocated_slots(&db);
    assert_eq!(before, 2 * K);
    let mut free = db.table_free_slots(T).unwrap();
    free.sort_unstable();
    assert_eq!(free, aborted);
    for key in 0..K {
        write(&db, key, 2);
    }
    db.checkpoint().unwrap();
    assert_eq!(allocated_slots(&db), before, "the aborts grew the table");
}

/// A crash between an abort and the checkpoint install that would release
/// its slot: nothing reused the slot in the meantime — not the writes
/// after the abort, not a checkpoint that failed to install — so the tail
/// replays the loser over it, and recovery retires it again.
#[test]
fn a_crash_before_the_install_replays_the_loser_over_its_unreused_slot() {
    let db = database();
    write(&db, 1, 1);
    write(&db, 2, 1);
    db.checkpoint().unwrap();
    let slot = conflicting_abort(&db, 1);
    write(&db, 2, 2);
    write(&db, 3, 2);
    let superblock = FaultRule::any(Trigger::Always, FaultKind::Fatal)
        .on_op(FaultOp::Write)
        .in_range(0, PAGE as u64);
    let plan = FaultPlan::new(3).rule(superblock);
    db.snapshots()
        .set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
    assert!(db.checkpoint().is_err());
    db.snapshots().set_fault_injector(None);
    write(&db, 2, 3);
    let in_use = |db: &Database| db.index_entries(T).unwrap().iter().any(|e| e.1 == slot);
    assert!(!in_use(&db));

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!((stats.snapshot_generation, stats.undone), (1, 1));
    // The rollback's retire, then the loser undo's.
    assert_eq!(aborted_slots_retired(&db), 2);
    let mut t = db.begin();
    for (key, value) in [(1, 1u8), (2, 3), (3, 2)] {
        assert_eq!(db.read(&t, T, key).unwrap(), vec![value; TUPLE]);
    }
    db.commit(&mut t).unwrap();
    assert!(!in_use(&db));
    db.checkpoint().unwrap();
    assert_eq!(db.table_free_slots(T).unwrap(), vec![slot]);
    write(&db, 4, 4);
    assert_eq!(rid_of(&db, 4), slot);
}

/// A fallback replays the interval in which a loser's slot was vacuumed
/// before its reuse: the older interval's records re-link the chain that
/// led to the slot, so vacuum frees it, and recovery leaves it alone —
/// the slot is released once, and two later writes get two slots.
#[test]
fn after_a_fallback_a_reused_loser_slot_is_released_once() {
    let db = database();
    write(&db, 1, 1);
    db.checkpoint().unwrap();
    // Key 2's first version goes into `slot`, which vacuum frees once the
    // second supersedes it; generation 2 releases it, and a loser reuses
    // it.
    write(&db, 2, 1);
    let slot = rid_of(&db, 2);
    write(&db, 2, 2);
    assert_eq!(db.vacuum().unwrap().freed, 1);
    db.checkpoint().unwrap();
    assert_eq!(db.table_free_slots(T).unwrap(), vec![slot]);
    assert_eq!(conflicting_abort(&db, 1), slot);

    // Generation 2 rots: recovery falls back to generation 1 and replays
    // both writes of key 2 and the loser.
    let store = db.snapshots();
    let manifest = store.entry(2).unwrap().manifest;
    store.device().write_page(manifest, &[0xEE; PAGE]).unwrap();
    store.device().sync().unwrap();
    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!((stats.snapshot_generation, stats.undone), (1, 1));
    assert_eq!(db.vacuum().unwrap().freed, 1);
    db.checkpoint().unwrap();
    assert_eq!(db.table_free_slots(T).unwrap(), vec![slot]);

    write(&db, 3, 3);
    write(&db, 4, 4);
    assert_ne!(rid_of(&db, 3), rid_of(&db, 4));
    let t = db.begin();
    for (key, value) in [(1, 1u8), (2, 2), (3, 3), (4, 4)] {
        assert_eq!(db.read(&t, T, key).unwrap(), vec![value; TUPLE]);
    }
}

/// Write `key` with fresh values until the log has grown by `bytes`.
fn write_log(db: &Database, key: u64, bytes: u64) {
    let until = db.wal().current_lsn() + bytes;
    let mut round = 0u8;
    while db.wal().current_lsn() < until {
        write(db, key, round);
        round = round.wrapping_add(1);
    }
}

fn maint_contended(db: &Database) -> u64 {
    let mut report = spitfire_obs::Report::default();
    spitfire_obs::Source::report(db, &mut report);
    report.counters["maint_contended"]
}

#[test]
fn maintain_runs_one_pass_per_dram_capacity_of_log() {
    let db = database();
    write(&db, 1, 0);
    assert_eq!(db.maintain().unwrap(), None, "not an interval of log yet");
    write_log(&db, 1, DRAM as u64);
    let pass = db.maintain().unwrap().expect("an interval of log: a pass");
    assert!(pass.vacuum.freed > 0);
    assert_eq!(pass.checkpoint.expect("quiescent").generation, 1);
    assert_eq!(db.maintain().unwrap(), None, "the pass restarted the count");
    assert!(!db.table_free_slots(T).unwrap().is_empty());
}

#[test]
fn an_open_transaction_costs_one_contended_pass_per_interval() {
    let db = database();
    let mut open = db.begin();
    write_log(&db, 2, DRAM as u64);
    let pass = db.maintain().unwrap().expect("due");
    assert_eq!(pass.checkpoint, None);
    assert_eq!(maint_contended(&db), 1);
    // Not retried until another interval of log, open or not.
    write(&db, 2, 0xEE);
    assert_eq!(db.maintain().unwrap(), None);
    db.commit(&mut open).unwrap();
    assert_eq!(db.maintain().unwrap(), None);
    assert_eq!(db.snapshots().generation(), 0);
    write_log(&db, 2, DRAM as u64);
    let pass = db.maintain().unwrap().expect("due again");
    assert_eq!(pass.checkpoint.expect("nothing open").generation, 1);
    assert_eq!(maint_contended(&db), 1);
}

#[test]
fn vacuum_concurrent_with_writers_is_safe() {
    let db = Arc::new(database());
    {
        let mut t = db.begin();
        for key in 0..32u64 {
            db.insert(&mut t, T, key, &[0u8; TUPLE]).unwrap();
        }
        db.commit(&mut t).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 0u8;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for key in (w * 16)..(w * 16 + 16) {
                        write(&db, key, round);
                    }
                    round = round.wrapping_add(1);
                }
            })
        })
        .collect();
    for _ in 0..20 {
        db.vacuum().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in writers {
        h.join().unwrap();
    }
    // Everything still readable.
    let t = db.begin();
    for key in 0..32u64 {
        assert!(
            db.read(&t, T, key).is_ok(),
            "key {key} lost during concurrent vacuum"
        );
    }
}

#[test]
fn flush_entry_points_clean_dirty_pages() {
    let db = database();
    {
        let mut t = db.begin();
        for key in 0..64u64 {
            db.insert(&mut t, T, key, &[1u8; TUPLE]).unwrap();
        }
        db.commit(&mut t).unwrap();
    }
    // What a checkpoint does before truncating the WAL: write every dirty
    // DRAM page home. Dirty NVM pages are persistent and stay dirty.
    let bm = db.buffer_manager();
    let flush = bm.flush_all_dirty().unwrap();
    assert!(flush.written > 0, "the load dirtied pages");
    assert!(flush.left_behind.is_empty());
    assert_eq!(bm.dirty_pages().0, 0, "DRAM dirt left behind");
    // A second flush finds nothing dirty.
    assert_eq!(bm.flush_all_dirty().unwrap(), Default::default());
}
