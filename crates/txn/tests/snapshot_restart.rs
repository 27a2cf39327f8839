//! Instant-restart tests: incremental checkpoints, fenced WAL
//! truncation, snapshot recovery, generation fallback on corruption, the
//! quiescence contract of `Database::checkpoint`, the store's crash model,
//! and recovery work across a database-size sweep.

use std::sync::Arc;

use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{
    FaultInjector, FaultKind, FaultPlan, FaultRule, PersistenceTracking, TimeScale, Trigger,
};
use spitfire_txn::{Database, DbConfig, SnapshotConfig, TxnError};

const PAGE: usize = 1024;
const T: u32 = 1;
const TUPLE: usize = 100;

fn database() -> Arc<Database> {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(64 * PAGE)
        .nvm_capacity(256 * (PAGE + 64))
        .policy(MigrationPolicy::lazy())
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    let db = Database::create(bm, DbConfig::default()).unwrap();
    db.create_table(T, TUPLE).unwrap();
    Arc::new(db)
}

fn snap_config() -> SnapshotConfig {
    SnapshotConfig {
        full_every: 4,
        ..SnapshotConfig::default()
    }
}

fn tuple(b: u8) -> Vec<u8> {
    vec![b; TUPLE]
}

/// Commit one transaction writing `(key, byte)` pairs.
fn write_all(db: &Database, pairs: &[(u64, u8)]) {
    let mut txn = db.begin();
    for &(k, b) in pairs {
        match db.update(&mut txn, T, k, &tuple(b)) {
            Err(TxnError::NotFound) => db.insert(&mut txn, T, k, &tuple(b)).unwrap(),
            other => other.unwrap(),
        }
    }
    db.commit(&mut txn).unwrap();
}

fn assert_contents(db: &Database, model: &std::collections::HashMap<u64, u8>, keys: u64) {
    let mut txn = db.begin();
    for k in 0..keys {
        match model.get(&k) {
            Some(&b) => assert_eq!(db.read(&txn, T, k).unwrap(), tuple(b), "key {k}"),
            None => assert_eq!(db.read(&txn, T, k).unwrap_err(), TxnError::NotFound),
        }
    }
    // Retire the read-only transaction so later checkpoints can quiesce.
    db.commit(&mut txn).unwrap();
}

#[test]
fn snapshot_recovery_restores_committed_state() {
    let db = database();
    db.enable_snapshots(snap_config());
    let mut model = std::collections::HashMap::new();

    write_all(&db, &(0..50).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..50u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    let stats = db.checkpoint().unwrap();
    assert_eq!(stats.generation, 1);
    assert!(stats.full);

    // Post-checkpoint tail: updates and fresh inserts.
    write_all(&db, &[(3, 0xA3), (7, 0xA7), (60, 0x60)]);
    model.insert(3, 0xA3);
    model.insert(7, 0xA7);
    model.insert(60, 0x60);

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1, "instant-restart path taken");
    // The full generation is SSD-backed: its pages were flushed to the
    // main SSD at checkpoint time, so recovery installs no images at all.
    assert_eq!(stats.snapshot_pages, 0, "full generations install nothing");
    assert_eq!(stats.committed, 1, "only the tail transaction replays");
    assert_contents(&db, &model, 64);

    // The database stays fully usable after an instant restart.
    write_all(&db, &[(3, 0x33), (99, 0x99)]);
    model.insert(3, 0x33);
    model.insert(99, 0x99);
    assert_contents(&db, &model, 100);
}

#[test]
fn incremental_generations_capture_only_dirty_pages() {
    let db = database();
    db.enable_snapshots(snap_config());
    let mut model = std::collections::HashMap::new();

    write_all(&db, &(0..60).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..60u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    let full = db.checkpoint().unwrap();
    assert!(full.full);

    // Touch a handful of keys; the delta must be much smaller.
    write_all(&db, &[(1, 0xB1), (2, 0xB2)]);
    model.insert(1, 0xB1);
    model.insert(2, 0xB2);
    let delta = db.checkpoint().unwrap();
    assert_eq!(delta.generation, 2);
    assert!(!delta.full);
    assert!(
        delta.pages < full.pages / 2,
        "delta captured {} pages, full captured {}",
        delta.pages,
        full.pages
    );

    write_all(&db, &[(5, 0xC5)]);
    model.insert(5, 0xC5);

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 2);
    assert_contents(&db, &model, 64);
}

#[test]
fn checkpoints_bound_the_wal() {
    let db = database();
    db.enable_snapshots(snap_config());
    write_all(&db, &(0..40).map(|k| (k, 1)).collect::<Vec<_>>());
    for round in 0..6u8 {
        write_all(&db, &(0..40).map(|k| (k, round)).collect::<Vec<_>>());
        db.checkpoint().unwrap();
    }
    // Each install truncates to the previous fence: the live log holds at
    // most the last two checkpoint intervals, not six rounds of history.
    let one_round = 40 * (TUPLE as u64 + 64); // generous per-record bound
    assert!(
        db.wal().log_bytes() < 3 * one_round,
        "live WAL {} bytes did not shrink",
        db.wal().log_bytes()
    );
}

#[test]
fn corrupt_newest_generation_falls_back_one() {
    let db = database();
    let engine = db.enable_snapshots(snap_config());
    let mut model = std::collections::HashMap::new();

    write_all(&db, &(0..30).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..30u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    db.checkpoint().unwrap();

    // Generation 2 supersedes key 9 — then rots on disk.
    write_all(&db, &[(9, 0xF9)]);
    model.insert(9, 0xF9);
    db.checkpoint().unwrap();
    let g2 = engine.store().entry(2).unwrap();
    let garbage = vec![0xEEu8; PAGE + 48];
    engine
        .store()
        .device()
        .write_page(g2.start, &garbage)
        .unwrap();
    engine.store().device().sync().unwrap();

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(
        stats.snapshot_generation, 1,
        "fell back past the corrupt generation"
    );
    // Generation 1's fence predates the key-9 update, and the WAL was
    // only truncated to generation 1's fence — the tail still carries it.
    assert_contents(&db, &model, 32);
}

#[test]
fn checkpoint_with_transaction_in_flight_is_retryable() {
    let db = database();
    db.enable_snapshots(SnapshotConfig {
        quiesce_wait: std::time::Duration::from_millis(10),
        ..snap_config()
    });
    write_all(&db, &[(1, 1)]);

    let mut txn = db.begin();
    db.update(&mut txn, T, 1, &tuple(2)).unwrap();
    let err = db.checkpoint().unwrap_err();
    assert_eq!(err, TxnError::CheckpointContended);
    assert!(err.is_retryable());

    db.commit(&mut txn).unwrap();
    assert_eq!(db.checkpoint().unwrap().generation, 1);
}

#[test]
fn engineless_checkpoint_attaches_the_default_engine() {
    let db = database(); // enable_snapshots never called
    assert!(db.snapshot_engine().is_none());
    write_all(&db, &[(1, 1)]);
    let mut txn = db.begin();
    db.update(&mut txn, T, 1, &tuple(2)).unwrap();
    assert_eq!(db.checkpoint().unwrap_err(), TxnError::CheckpointContended);
    db.abort(&mut txn).unwrap();

    let stats = db.checkpoint().unwrap();
    assert_eq!(stats.generation, 1);
    assert!(stats.full, "the first generation is a chain base");
    assert_eq!(db.snapshot_engine().unwrap().generation(), 1);

    write_all(&db, &[(2, 2)]);
    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1, "instant-restart path taken");
    assert_eq!(stats.committed, 1, "only the tail transaction replays");
    assert_contents(&db, &[(1, 1), (2, 2)].into_iter().collect(), 4);
}

#[test]
fn crash_drops_uninstalled_snapshot_blocks() {
    let db = database();
    let engine = db.enable_snapshots(snap_config());
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..30).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..30u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    db.checkpoint().unwrap();
    write_all(&db, &[(4, 0xD4)]);
    model.insert(4, 0xD4);
    let installed_bytes = engine.store().used_bytes();

    // A checkpoint that loses power mid-stream: blocks appended, never
    // synced, never installed.
    let mut writer = engine.store().begin(false, db.wal().current_lsn());
    writer.page_image(0, &[0xEE; PAGE]).unwrap();
    writer.page_image(1, &[0xEF; PAGE]).unwrap();
    drop(writer);
    assert!(engine.store().used_bytes() > installed_bytes);

    // The store follows the buffer manager's `persistence(Full)`: its
    // un-synced blocks roll back with everything else.
    db.simulate_crash();
    assert_eq!(
        engine.store().used_bytes(),
        installed_bytes,
        "un-synced snapshot blocks survived the crash"
    );
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1);
    assert_contents(&db, &model, 32);
}

/// Size-sweep history: rewrites per key (fixes the WAL records *per key*,
/// so history grows linearly with the key count).
const UPDATES: u64 = 4;
const BATCH: u64 = 8;
/// Transactions between checkpoints, independent of scale.
const CKPT_EVERY: u64 = 64;
const BASE_KEYS: u64 = 128;
/// Write records one checkpoint interval appends.
const INTERVAL_RECORDS: usize = (CKPT_EVERY * BATCH) as usize;

/// Writes every key `1 + UPDATES` times in `BATCH`-key transactions,
/// checkpointing every `CKPT_EVERY` transactions when `checkpoints` is
/// set; crashes, recovers, and returns the recovery counters plus the live
/// WAL bytes at the crash.
fn crash_after_history(keys: u64, checkpoints: bool) -> (spitfire_txn::RecoveryStats, u64) {
    let db = database();
    if checkpoints {
        db.enable_snapshots(snap_config());
    }
    let mut txns = 0u64;
    for round in 0..=UPDATES {
        for first in (0..keys).step_by(BATCH as usize) {
            let pairs: Vec<(u64, u8)> = (first..(first + BATCH).min(keys))
                .map(|k| (k, (round ^ k) as u8))
                .collect();
            write_all(&db, &pairs);
            txns += 1;
            if checkpoints && txns.is_multiple_of(CKPT_EVERY) {
                db.checkpoint().unwrap();
            }
        }
    }
    let wal_bytes = db.wal().log_bytes();
    db.simulate_crash();
    let stats = db.recover().unwrap();
    let txn = db.begin();
    let last = keys - 1;
    assert_eq!(
        db.read(&txn, T, last).unwrap(),
        tuple((UPDATES ^ last) as u8),
        "recovered state serves the final round"
    );
    (stats, wal_bytes)
}

#[test]
fn snapshot_recovery_work_is_flat_across_a_size_sweep() {
    for scale in [1u64, 2, 4, 8] {
        let keys = BASE_KEYS * scale;

        // No checkpoints: recovery redoes the whole history, ×scale.
        let (replay, _) = crash_after_history(keys, false);
        assert_eq!(replay.snapshot_generation, 0);
        assert_eq!(replay.redone as u64, keys * (1 + UPDATES));

        // Checkpoints every CKPT_EVERY transactions: recovery installs a
        // bounded delta chain and redoes at most one interval's tail —
        // under half of full replay even at 1× — and the live WAL holds
        // at most the two newest intervals.
        let (snap, wal_bytes) = crash_after_history(keys, true);
        assert!(snap.snapshot_generation > 0, "{scale}x: instant restart");
        let work = snap.redone + snap.snapshot_pages;
        assert!(
            work <= INTERVAL_RECORDS && 2 * work < replay.redone,
            "{scale}x: recovery work {work} (redone {}, pages {}) vs one interval {INTERVAL_RECORDS}, \
             full replay {}",
            snap.redone,
            snap.snapshot_pages,
            replay.redone
        );
        // Generous per-record bound (frame header + commit-record share).
        let interval_bytes = INTERVAL_RECORDS as u64 * (TUPLE as u64 + 64 + 16);
        assert!(
            wal_bytes <= 2 * interval_bytes,
            "{scale}x: live WAL {wal_bytes} bytes was not truncated to the previous fence"
        );
    }
}

#[test]
fn failed_checkpoint_installs_nothing_and_recovers_from_prior() {
    let db = database();
    let engine = db.enable_snapshots(snap_config());
    let mut model = std::collections::HashMap::new();

    write_all(&db, &(0..30).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..30u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    db.checkpoint().unwrap();

    write_all(&db, &[(4, 0xD4)]);
    model.insert(4, 0xD4);

    // Every snapshot-store write fails fatally: the checkpoint errors and
    // the generation is never installed.
    let plan = FaultPlan::new(7).rule(FaultRule::any(Trigger::Always, FaultKind::Fatal));
    db.set_snapshot_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
    assert!(db.checkpoint().is_err());
    assert_eq!(engine.generation(), 1, "failed generation not installed");
    db.set_snapshot_fault_injector(None);

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1);
    assert_contents(&db, &model, 32);

    // The drained dirty set was merged back / recovery re-bases: a later
    // checkpoint succeeds and captures the post-crash state.
    write_all(&db, &[(5, 0xD5)]);
    model.insert(5, 0xD5);
    let stats = db.checkpoint().unwrap();
    assert!(stats.full, "first post-recovery generation re-bases");
    db.simulate_crash();
    db.recover().unwrap();
    assert_contents(&db, &model, 32);
}

#[test]
fn recovery_without_any_generation_falls_back_to_full_replay() {
    let db = database();
    db.enable_snapshots(snap_config());
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..20).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..20u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    // No checkpoint ever ran.
    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 0, "full-history recovery");
    assert_contents(&db, &model, 24);
}

#[test]
fn loser_tail_transactions_are_undone_on_instant_restart() {
    let db = database();
    db.enable_snapshots(snap_config());
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..10).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..10u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    db.checkpoint().unwrap();

    // In-flight at crash: updated key 2, inserted key 30 — never
    // committed.
    let mut txn = db.begin();
    db.update(&mut txn, T, 2, &tuple(0xEE)).unwrap();
    db.insert(&mut txn, T, 30, &tuple(0xEF)).unwrap();

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1);
    assert_eq!(stats.losers, 1);
    assert_contents(&db, &model, 32);
}
