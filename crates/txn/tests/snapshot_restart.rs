//! Instant-restart tests: the home flush, fenced WAL truncation, snapshot
//! recovery, generation fallback on corruption, the quiescence contract of
//! `Database::checkpoint`, the store's crash model, torn and interrupted
//! block reuse, the steady state of the store and the log file,
//! recovery work across a database-size sweep, and tables' page lists —
//! stored by generations, rebuilt from the log tail, never written on
//! growth.

use std::sync::Arc;

use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy, PageId, Tier};
use spitfire_device::{
    DeviceProfile, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, PersistenceTracking,
    TimeScale, Trigger,
};
use spitfire_txn::{Database, DbConfig, TxnError, BLOCK_HEADER};

const PAGE: usize = 1024;
const T: u32 = 1;
const TUPLE: usize = 100;

fn database() -> Arc<Database> {
    database_with(DbConfig::default())
}

fn database_with(db_config: DbConfig) -> Arc<Database> {
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
    let db = Database::create(bm, db_config).unwrap();
    db.create_table(T, TUPLE).unwrap();
    Arc::new(db)
}

/// Index entries one store block holds.
const RUN_ENTRIES: usize = (PAGE - BLOCK_HEADER) / 16;

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
    let mut model = std::collections::HashMap::new();

    write_all(&db, &(0..50).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..50u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    let stats = db.checkpoint().unwrap();
    assert_eq!(stats.generation, 1);

    // Post-checkpoint tail: updates and fresh inserts.
    write_all(&db, &[(3, 0xA3), (7, 0xA7), (60, 0x60)]);
    model.insert(3, 0xA3);
    model.insert(7, 0xA7);
    model.insert(60, 0x60);

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1, "instant-restart path taken");
    // The checkpoint wrote its pages home, so recovery installs no images.
    assert_eq!(stats.snapshot_pages, 0);
    assert_eq!(stats.committed, 1, "only the tail transaction replays");
    assert_contents(&db, &model, 64);

    // The database stays fully usable after an instant restart.
    write_all(&db, &[(3, 0x33), (99, 0x99)]);
    model.insert(3, 0x33);
    model.insert(99, 0x99);
    assert_contents(&db, &model, 100);
}

#[test]
fn checkpoints_bound_the_wal() {
    let db = database();
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
    // Rot, in turn, the index run and the manifest of the newest
    // generation: each costs exactly one generation.
    for victim in ["index run", "manifest"] {
        let db = database();
        let store = db.snapshots();
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
        let block = match victim {
            "index run" => store.blocks(2)[0],
            _ => store.entry(2).unwrap().manifest,
        };
        store.device().write_page(block, &[0xEE; PAGE]).unwrap();
        store.device().sync().unwrap();

        let older_tail = db.wal().current_lsn() - store.entry(1).unwrap().fence_lsn;
        db.simulate_crash();
        let stats = db.recover().unwrap();
        assert_eq!(
            stats.snapshot_generation, 1,
            "{victim}: fell back past the corrupt generation"
        );
        store.check().unwrap();
        // Generation 1's fence predates the key-9 update, and the WAL was
        // only truncated to generation 1's fence — the tail still carries
        // it, and recovery reads and replays that older tail.
        assert_eq!(stats.log_bytes, older_tail, "{victim}");
        assert_eq!((stats.committed, stats.redone), (1, 1), "{victim}");
        assert_contents(&db, &model, 32);
    }
}

#[test]
fn checkpoint_with_transaction_in_flight_is_retryable() {
    let db = database();
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
fn the_first_checkpoint_installs_into_the_engine_create_built() {
    let db = database();
    assert_eq!(db.snapshots().generation(), 0);
    write_all(&db, &[(1, 1)]);
    let mut txn = db.begin();
    db.update(&mut txn, T, 1, &tuple(2)).unwrap();
    assert_eq!(db.checkpoint().unwrap_err(), TxnError::CheckpointContended);
    db.abort(&mut txn).unwrap();

    let stats = db.checkpoint().unwrap();
    assert_eq!(stats.generation, 1);
    assert_eq!(db.snapshots().generation(), 1);

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
    let store = db.snapshots();
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..30).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..30u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    db.checkpoint().unwrap();
    write_all(&db, &[(4, 0xD4)]);
    model.insert(4, 0xD4);
    let installed_bytes = store.used_bytes();

    // A checkpoint that loses power mid-stream: blocks written, never
    // synced, never installed.
    let mut writer = store.begin(db.wal().fence().unwrap());
    let run: Vec<(u64, u64)> = (0..2 * RUN_ENTRIES as u64).map(|k| (k, k)).collect();
    writer.index_entries(T, &run).unwrap();
    drop(writer);
    assert!(store.used_bytes() > installed_bytes);

    // The store follows the buffer manager's `persistence(Full)`: its
    // un-synced blocks roll back with everything else.
    db.simulate_crash();
    assert_eq!(
        store.used_bytes(),
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
    let mut txns = 0u64;
    for round in 0..=UPDATES {
        for first in (0..keys).step_by(BATCH as usize) {
            let pairs: Vec<(u64, u8)> = (first..(first + BATCH).min(keys))
                .map(|k| (k, (round ^ k) as u8))
                .collect();
            write_all(&db, &pairs);
            txns += 1;
            if checkpoints && txns % CKPT_EVERY == 0 {
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

        // Checkpoints every CKPT_EVERY transactions: recovery installs no
        // page image and redoes at most one interval's tail — under half
        // of full replay even at 1× — and the live WAL holds at most the
        // two newest intervals.
        let (snap, wal_bytes) = crash_after_history(keys, true);
        assert!(snap.snapshot_generation > 0, "{scale}x: instant restart");
        assert_eq!(snap.snapshot_pages, 0, "{scale}x");
        let work = snap.redone;
        assert!(
            work <= INTERVAL_RECORDS && 2 * work < replay.redone,
            "{scale}x: recovery redid {work} records vs one interval {INTERVAL_RECORDS}, \
             full replay {}",
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
    let store = db.snapshots();
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
    db.snapshots()
        .set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
    assert!(db.checkpoint().is_err());
    assert_eq!(store.generation(), 1, "failed generation not installed");
    db.snapshots().set_fault_injector(None);

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1);
    assert_contents(&db, &model, 32);

    // A later checkpoint succeeds and captures the post-crash state.
    write_all(&db, &[(5, 0xD5)]);
    model.insert(5, 0xD5);
    db.checkpoint().unwrap();
    db.simulate_crash();
    db.recover().unwrap();
    assert_contents(&db, &model, 32);
}

#[test]
fn recovery_without_any_generation_replays_the_whole_log() {
    let db = database();
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..20).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..20u64).for_each(|k| {
        model.insert(k, k as u8);
    });
    // No checkpoint ever ran.
    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 0, "no generation installed");
    assert_contents(&db, &model, 24);
}

#[test]
fn a_table_created_after_a_generation_survives_a_crash() {
    let db = database();
    write_all(&db, &[(1, 1)]);
    db.checkpoint().unwrap();

    // Generation 1's manifest lists table 1 only: table 2 lives in the
    // log tail, as its `CreateTable` record.
    db.create_table(2, TUPLE).unwrap();
    let mut txn = db.begin();
    db.insert(&mut txn, 2, 5, &tuple(0x25)).unwrap();
    db.commit(&mut txn).unwrap();

    db.simulate_crash();
    let stats = db.recover().unwrap();
    let mut txn = db.begin();
    assert_eq!(db.read(&txn, 2, 5), Ok(tuple(0x25)));
    assert_eq!(db.read(&txn, T, 1), Ok(tuple(1)));
    db.commit(&mut txn).unwrap();
    assert_eq!(stats.snapshot_generation, 1);
    assert_eq!((stats.committed, stats.redone), (1, 1));
    assert_eq!(stats.index_entries, 2, "one key in each table");

    // The next generation lists it; a crash after that still finds it.
    db.checkpoint().unwrap();
    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!((stats.snapshot_generation, stats.redone), (2, 0));
    let txn = db.begin();
    assert_eq!(db.read(&txn, 2, 5).unwrap(), tuple(0x25));
}

#[test]
fn recovery_with_both_retained_generations_corrupt_is_an_error() {
    let db = database();
    let store = db.snapshots();
    write_all(&db, &[(1, 1)]);
    db.checkpoint().unwrap();
    write_all(&db, &[(2, 2)]);
    db.checkpoint().unwrap();
    for gen in [1, 2] {
        let manifest = store.entry(gen).unwrap().manifest;
        store.device().write_page(manifest, &[0xEE; PAGE]).unwrap();
    }
    store.device().sync().unwrap();

    db.simulate_crash();
    assert!(matches!(db.recover(), Err(TxnError::Corrupt(_))));
}

/// A superblock that is present but unreadable may have named
/// generations, and the log was cut at one of their fences: it must not
/// read as an empty store. With no write between the last two
/// checkpoints the remaining log is empty, so an empty manifest would
/// recover `Ok` with every table gone.
#[test]
fn recovery_with_an_unreadable_superblock_is_an_error() {
    let db = database();
    let store = db.snapshots();
    write_all(&db, &[(1, 1)]);
    db.checkpoint().unwrap();
    write_all(&db, &[(2, 2)]);
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    store.device().write_page(0, &[0xEE; PAGE]).unwrap();
    store.device().sync().unwrap();

    db.simulate_crash();
    assert!(matches!(db.recover(), Err(TxnError::Corrupt(_))));
}

/// Recovery reads the superblock once and each retained generation once:
/// the newest (manifest + runs) is validated and loaded from the same
/// reads, the fallback is read to learn which blocks it holds.
#[test]
fn recovery_reads_each_retained_generation_once() {
    let db = database();
    let mut model = std::collections::HashMap::new();
    for (round, keys) in [(1u8, 2 * RUN_ENTRIES as u64), (2, 4 * RUN_ENTRIES as u64)] {
        for batch in (0..keys).collect::<Vec<_>>().chunks(32) {
            write_all(&db, &batch.iter().map(|&k| (k, round)).collect::<Vec<_>>());
        }
        (0..keys).for_each(|k| {
            model.insert(k, round);
        });
        db.checkpoint().unwrap();
    }
    let store = db.snapshots();
    let blocks = |gen| store.blocks(gen).len() as u64;
    let (fallback, newest) = (blocks(1), blocks(2));
    assert!(newest > fallback && fallback > 2, "{newest} / {fallback}");

    db.simulate_crash();
    let before = store.stats();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 2);
    assert_eq!(
        store.stats().delta(&before).read_ops,
        1 + newest + fallback,
        "superblock + newest ({newest} blocks) + fallback ({fallback} blocks)"
    );
    store.check().unwrap();
    assert_contents(&db, &model, 4 * RUN_ENTRIES as u64 + 2);
}

/// Recovery starts its log scan at the generation's fence page: the log
/// between the fallback generation's fence and the newest one's is
/// neither read nor replayed, though the log file still holds it for the
/// fallback.
#[test]
fn recovery_reads_only_the_log_tail() {
    // A 64 KB log buffer drains every 48 KB, so the load spans many
    // log-file pages and the tail some pages plus the buffer.
    let db = database_with(DbConfig {
        log_buffer_bytes: 64 * 1024,
    });
    let mut model = std::collections::HashMap::new();
    const LOAD: u64 = 1000;
    const TAIL: u64 = 400;
    for (round, keys) in [(1u8, LOAD), (2, LOAD), (3, LOAD), (4, TAIL)] {
        if round % 2 == 0 {
            db.checkpoint().unwrap();
        }
        for batch in (0..keys).collect::<Vec<_>>().chunks(32) {
            write_all(&db, &batch.iter().map(|&k| (k, round)).collect::<Vec<_>>());
        }
        (0..keys).for_each(|k| {
            model.insert(k, round);
        });
    }
    let store = db.snapshots();
    let older = store.load(1, |_, _| {}).unwrap().fence;
    let fence = store.load(2, |_, _| {}).unwrap().fence;
    assert_eq!(
        db.wal().base().lsn,
        older.lsn,
        "the fallback's tail is kept"
    );
    let skipped = fence.file_page - older.file_page;
    let tail_bytes = db.wal().current_lsn() - fence.lsn;
    // The pages after the fence's own page, which only names the tail's
    // start LSN.
    let tail_pages = db.wal().file_pages() as u64 - skipped - 1;
    assert!(skipped > 2 * tail_pages, "{skipped} / {tail_pages}");
    assert!(tail_pages > 0 && db.wal().pending_bytes() > 0);

    db.simulate_crash();
    let before = db.wal().file_stats().snapshot();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 2);
    assert_eq!(stats.log_bytes, tail_bytes);
    // A log page is one SSD write unit; the tail is one sequential read.
    let log_page = DeviceProfile::optane_ssd().access_granularity as u64;
    let read = db.wal().file_stats().snapshot().delta(&before);
    assert_eq!(
        (read.bytes_read, read.read_ops),
        (tail_pages * log_page, 1),
        "the tail's {tail_pages} log pages in one request, not the {skipped} before them"
    );
    assert_eq!(stats.redone as u64, TAIL);
    assert_contents(&db, &model, LOAD + 2);
}

/// One generation truncates the log to its own fence: no recovery reads
/// below the oldest retained fence, so the load before the first
/// checkpoint leaves the log device and only the tail stays.
#[test]
fn one_generation_truncates_the_log_to_its_own_fence() {
    let db = database_with(DbConfig {
        log_buffer_bytes: 64 * 1024,
    });
    for batch in (0..1000u64).collect::<Vec<_>>().chunks(32) {
        write_all(&db, &batch.iter().map(|&k| (k, 1)).collect::<Vec<_>>());
    }
    let load_pages = db.wal().fence().unwrap().file_page;
    assert!(load_pages > 4, "{load_pages}");
    db.checkpoint().unwrap();
    let fence = db.snapshots().load(1, |_, _| {}).unwrap().fence;
    assert_eq!(db.wal().base().lsn, fence.lsn);
    // The fence's own page, which names where the log starts, is all the
    // file keeps.
    assert_eq!(db.wal().file_pages(), 1, "the load's pages went back");

    // The tail — from the fence's page through the next fence's — is all
    // the log holds, and recovery replays it.
    for batch in (0..400u64).collect::<Vec<_>>().chunks(32) {
        write_all(&db, &batch.iter().map(|&k| (k, 2)).collect::<Vec<_>>());
    }
    let tail_pages = db.wal().fence().unwrap().file_page + 1 - fence.file_page;
    assert!(tail_pages > 2);
    assert_eq!(db.wal().file_pages() as u64, tail_pages);
    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!((stats.snapshot_generation, stats.redone), (1, 400));
    let txn = db.begin();
    assert_eq!(db.read(&txn, T, 0).unwrap(), tuple(2));
    assert_eq!(db.read(&txn, T, 999).unwrap(), tuple(1));
}

/// Recovery rebuilds the retained generations, so the first checkpoint
/// after a restart truncates the log to the delivered generation's fence,
/// the oldest one then retained.
#[test]
fn the_first_checkpoint_after_a_restart_truncates_the_log() {
    let db = database();
    let mut model = std::collections::HashMap::new();
    for round in 1..=3u8 {
        write_all(&db, &(0..40).map(|k| (k, round)).collect::<Vec<_>>());
        (0..40u64).for_each(|k| {
            model.insert(k, round);
        });
        if round < 3 {
            db.checkpoint().unwrap();
        }
    }
    let store = db.snapshots();
    let (older, newest) = (store.entry(1).unwrap(), store.entry(2).unwrap());
    assert_eq!(db.wal().base().lsn, older.fence_lsn);

    db.simulate_crash();
    assert_eq!(db.recover().unwrap().snapshot_generation, 2);
    write_all(&db, &[(1, 0x41)]);
    model.insert(1, 0x41);
    db.checkpoint().unwrap();
    assert_eq!(
        db.wal().base().lsn,
        newest.fence_lsn,
        "truncated to the delivered generation's fence"
    );
    db.simulate_crash();
    assert_eq!(db.recover().unwrap().snapshot_generation, 3);
    assert_contents(&db, &model, 42);
}

#[test]
fn loser_tail_transactions_are_undone_on_instant_restart() {
    let db = database();
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

/// Recovery rebuilds each index in one bulk load of the generation's run
/// with the tail's outcome per key merged in: a winner's write points its
/// key at the new slot, a loser's update points back at the slot it
/// superseded, a loser's fresh insert is removed, and a table created in
/// the tail gets an index from its fix-ups alone. Two recoveries from the
/// same crash image rebuild the same indexes.
#[test]
fn recovery_merges_the_tail_into_each_index_run() {
    let db = database();
    // Even keys, so fresh inserts land between run keys as well as past
    // them.
    write_all(&db, &(0..40).map(|k| (2 * k, 1)).collect::<Vec<_>>());
    db.checkpoint().unwrap();
    let run = db.index_entries(T).unwrap();
    assert_eq!(run.len(), 40);

    // Winners: an update of run key 4, fresh keys 13 and 200, and table 2.
    write_all(&db, &[(4, 2), (13, 2), (200, 2)]);
    db.create_table(2, TUPLE).unwrap();
    let mut txn = db.begin();
    for k in [5u64, 1, 9] {
        db.insert(&mut txn, 2, k, &tuple(k as u8)).unwrap();
    }
    db.commit(&mut txn).unwrap();
    let committed = db.index_entries(T).unwrap();
    let committed_2 = db.index_entries(2).unwrap();
    assert_eq!(committed.len(), 42);
    assert_ne!(committed, run, "key 4 moved to its new version");

    // Losers, in flight at the crash: a winner-written key and a run key
    // updated, a fresh key inserted between run keys.
    let mut loser = db.begin();
    db.update(&mut loser, T, 4, &tuple(3)).unwrap();
    db.update(&mut loser, T, 8, &tuple(3)).unwrap();
    db.insert(&mut loser, T, 11, &tuple(3)).unwrap();
    let live = db.index_entries(T).unwrap();
    assert!(live.iter().any(|&(k, _)| k == 11));
    assert!(live.len() == committed.len() + 1 && live != committed);

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!((stats.snapshot_generation, stats.losers), (1, 1));
    let rebuilt = (db.index_entries(T).unwrap(), db.index_entries(2).unwrap());
    assert_eq!(rebuilt, (committed.clone(), committed_2.clone()));
    assert_eq!(stats.index_entries, committed.len() + committed_2.len());

    // Recovered state reads back through the rebuilt indexes.
    let mut model: std::collections::HashMap<(u32, u64), u8> =
        (0..40).map(|k| ((T, 2 * k), 1)).collect();
    model.extend([((T, 4), 2), ((T, 13), 2), ((T, 200), 2)]);
    model.extend([5u64, 1, 9].map(|k| ((2, k), k as u8)));
    assert_tables(&db, &model);
    let txn = db.begin();
    assert_eq!(db.read(&txn, T, 11).unwrap_err(), TxnError::NotFound);

    // The same crash image again: the same indexes.
    db.simulate_crash();
    let again = db.recover().unwrap();
    assert_eq!(again.index_entries, stats.index_entries);
    assert_eq!(
        (db.index_entries(T).unwrap(), db.index_entries(2).unwrap()),
        rebuilt
    );
}

/// Rewrite every key with `byte` and checkpoint, `rounds` times: the
/// steady state, in which every checkpoint finds every page dirty.
fn rewrite_and_checkpoint(
    db: &Database,
    model: &mut std::collections::HashMap<u64, u8>,
    keys: u64,
    rounds: std::ops::Range<u8>,
) {
    for round in rounds {
        write_all(db, &(0..keys).map(|k| (k, round)).collect::<Vec<_>>());
        (0..keys).for_each(|k| {
            model.insert(k, round);
        });
        db.vacuum().unwrap();
        db.checkpoint().unwrap();
    }
}

/// Fails the superblock write (store page 0) and nothing else.
fn superblock_write_fails() -> FaultRule {
    FaultRule::any(Trigger::Always, FaultKind::Fatal)
        .on_op(FaultOp::Write)
        .in_range(0, PAGE as u64)
}

#[test]
fn interrupted_and_torn_reuse_leave_both_retained_generations_intact() {
    for scenario in ["power-loss", "torn-uninstalled", "torn-installed"] {
        let db = database();
        let store = db.snapshots();
        let mut model = std::collections::HashMap::new();
        // Enough keys that a generation's first index run fills its block.
        let keys = RUN_ENTRIES as u64 + 3;
        rewrite_and_checkpoint(&db, &mut model, keys, 0..4);
        assert_eq!(store.generation(), 4);
        // Generation 2's two index runs, its page run and its manifest.
        let free = store.free_blocks();
        assert_eq!(free, 4, "{scenario}: generation 2's blocks are reusable");
        let used = store.used_bytes();

        // Tail past generation 4's fence, dirtying every page again.
        write_all(&db, &(0..keys).map(|k| (k, 0xA0)).collect::<Vec<_>>());
        (0..keys).for_each(|k| {
            model.insert(k, 0xA0);
        });

        let recovered_from = match scenario {
            "power-loss" => {
                // The writer overwrites reused blocks, the device makes
                // them durable, and power fails before the install.
                let mut writer = store.begin(db.wal().fence().unwrap());
                let run: Vec<(u64, u64)> =
                    (0..(free * RUN_ENTRIES) as u64).map(|k| (k, 0)).collect();
                writer.index_entries(T, &run).unwrap();
                store.device().sync().unwrap();
                drop(writer);
                4
            }
            torn => {
                // The first block the checkpoint writes — a full index run
                // — tears silently (a `Truncate` outcome on a reused
                // block). Either the install then fails, or it goes
                // through and generation 5 carries a run that cannot pass
                // its CRC.
                let mut plan = FaultPlan::new(11);
                if torn == "torn-uninstalled" {
                    plan = plan.rule(superblock_write_fails());
                }
                let plan = plan.rule(
                    FaultRule::any(Trigger::NthOp(1), FaultKind::TornWrite).on_op(FaultOp::Write),
                );
                let injector = Arc::new(FaultInjector::new(plan));
                db.snapshots()
                    .set_fault_injector(Some(Arc::clone(&injector)));
                let outcome = db.checkpoint();
                db.snapshots().set_fault_injector(None);
                assert_eq!(injector.stats().torn, 1);
                assert_eq!(outcome.is_ok(), torn == "torn-installed");
                4
            }
        };
        assert_eq!(
            store.used_bytes(),
            used,
            "{scenario}: only free blocks were written"
        );

        db.simulate_crash();
        let stats = db.recover().unwrap();
        store.check().unwrap();
        assert_eq!(stats.snapshot_generation, recovered_from, "{scenario}");
        assert!(store.validate(4).unwrap(), "{scenario}");
        if scenario == "torn-installed" {
            assert!(
                store.validate(3).is_ok_and(|v| !v),
                "{scenario}: 3 was retired"
            );
            assert!(!store.validate(5).unwrap(), "{scenario}: 5 is torn");
        } else {
            assert!(store.validate(3).unwrap(), "{scenario}");
        }
        assert_contents(&db, &model, keys + 8);

        // And the store carries on from there.
        rewrite_and_checkpoint(&db, &mut model, keys, 0xB0..0xB3);
        store.check().unwrap();
        db.simulate_crash();
        db.recover().unwrap();
        assert_contents(&db, &model, keys + 8);
    }
}

#[test]
fn failed_superblock_write_forgets_nothing() {
    let db = database();
    let store = db.snapshots();
    let mut model = std::collections::HashMap::new();
    rewrite_and_checkpoint(&db, &mut model, 40, 0..4);
    write_all(&db, &[(7, 0xC7)]);
    model.insert(7, 0xC7);

    let before = (store.generations(), store.free_blocks(), store.used_bytes());
    let plan = FaultPlan::new(3).rule(superblock_write_fails());
    db.snapshots()
        .set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
    assert!(db.checkpoint().is_err());
    db.snapshots().set_fault_injector(None);
    store.check().unwrap();
    // The generation the install would have retired is still listed, and
    // still whole: the durable superblock names it.
    assert_eq!(
        (store.generations(), store.free_blocks(), store.used_bytes()),
        before
    );
    assert!(store.validate(3).unwrap() && store.validate(4).unwrap());

    // The next checkpoint succeeds and retires generation 3 for real.
    let stats = db.checkpoint().unwrap();
    store.check().unwrap();
    let gens: Vec<u64> = store.generations().iter().map(|g| g.generation).collect();
    assert_eq!(gens, vec![4, stats.generation]);
    assert!(store.validate(4).unwrap(), "the fallback generation");
    db.simulate_crash();
    assert_eq!(db.recover().unwrap().snapshot_generation, stats.generation);
    assert_contents(&db, &model, 48);
}

/// One deterministic steady-state run on 16 KB pages (the device's
/// transfer unit, so a block charged as two would show): a fixed working
/// set rewritten, vacuumed and checkpointed `rounds` times, then a crash.
/// Returns every number observed, for the run-twice equality, after
/// asserting the per-round invariants.
fn steady_state_run(rounds: u8) -> Vec<u64> {
    const PAGE16: usize = 16 * 1024;
    const KEYS: u64 = 400;
    const BIG: usize = 1000;
    let config = BufferManagerConfig::builder()
        .page_size(PAGE16)
        .dram_capacity(32 * PAGE16)
        .nvm_capacity(96 * (PAGE16 + 64))
        .policy(MigrationPolicy::lazy())
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    let db = Database::create(Arc::clone(&bm), DbConfig::default()).unwrap();
    db.create_table(T, BIG).unwrap();
    let store = db.snapshots();
    let unit = DeviceProfile::optane_ssd().effective_transfer(PAGE16) as u64;
    assert_eq!(unit, PAGE16 as u64);
    let payload = PAGE16 - BLOCK_HEADER;

    let mut seen = Vec::new();
    let mut appended = vec![0u64]; // log-file pages appended, per round
    let mut used_at_4 = 0;
    let mut most_blocks = 0;
    for round in 0..rounds {
        let log_before = db.wal().file_stats().snapshot().write_ops;
        rewrite_big(&db, KEYS, BIG, |k| round ^ k as u8);
        db.vacuum().unwrap();
        let before = store.stats();
        let stats = db.checkpoint().unwrap();
        let wrote = store.stats().delta(&before);
        appended.push(db.wal().file_stats().snapshot().write_ops - log_before);

        // The log file holds at most the two newest intervals.
        let two_intervals: u64 = appended.iter().rev().take(2).sum();
        assert!(
            db.wal().file_pages() as u64 <= two_intervals,
            "round {round}: {} log pages live, two intervals are {two_intervals}",
            db.wal().file_pages()
        );

        // Every block is one device page, written once: index runs + the
        // page run + manifest + superblock. No page image goes to the
        // store.
        let pages = db.table_data_pages(T).unwrap().len();
        let blocks =
            (stats.index_entries.div_ceil(payload / 16) + pages.div_ceil(payload / 8)) as u64 + 1;
        assert_eq!(wrote.write_ops, blocks + 1, "round {round}");
        assert_eq!(wrote.bytes_written, wrote.write_ops * unit, "round {round}");
        store.check().unwrap();

        most_blocks = most_blocks.max(blocks);
        if round == 3 {
            used_at_4 = store.used_bytes();
        }
        seen.extend([
            stats.pages as u64,
            wrote.write_ops,
            store.used_bytes(),
            store.free_blocks() as u64,
            db.wal().file_pages() as u64,
        ]);
    }
    if rounds > 4 {
        // Flat from the fourth round on, at no more than three
        // generations' worth of blocks (two retained + the writer).
        assert_eq!(store.used_bytes(), used_at_4);
        assert!(store.used_bytes() <= (3 * most_blocks + 1) * PAGE16 as u64);
    }

    // Tail, crash, recover: the homes and the NVM buffer hold every page,
    // the WAL tail the rest.
    rewrite_big(&db, KEYS, BIG, |_| 0x5A);
    db.simulate_crash();
    let recovery = db.recover().unwrap();
    store.check().unwrap();
    assert_eq!(recovery.snapshot_generation, u64::from(rounds));
    assert_eq!(recovery.snapshot_pages, 0);
    let txn = db.begin();
    assert_eq!(db.read(&txn, T, KEYS - 1).unwrap(), vec![0x5A; BIG]);
    seen.push(recovery.redone as u64);
    seen
}

/// Write every key once (`size`-byte tuples filled with `byte(key)`),
/// eight keys a transaction.
fn rewrite_big(db: &Database, keys: u64, size: usize, byte: impl Fn(u64) -> u8) {
    for first in (0..keys).step_by(8) {
        let mut txn = db.begin();
        for k in first..first + 8 {
            let value = vec![byte(k); size];
            match db.update(&mut txn, T, k, &value) {
                Err(TxnError::NotFound) => db.insert(&mut txn, T, k, &value).unwrap(),
                other => other.unwrap(),
            }
        }
        db.commit(&mut txn).unwrap();
    }
}

#[test]
fn store_and_log_reach_a_steady_state() {
    let run = steady_state_run(24);
    assert_eq!(run, steady_state_run(24), "counts repeat run to run");
}

#[test]
fn recovery_redoes_one_tail_however_many_generations_precede_the_crash() {
    // Crash after 2 and after 8 generations.
    let near = steady_state_run(2);
    let far = steady_state_run(8);
    assert_eq!(near, steady_state_run(2));
    let redone = |run: &[u64]| run[run.len() - 1];
    // Nothing accumulates across generations: the same tail either way.
    assert_eq!(redone(&near), redone(&far));
    assert!(redone(&near) > 0);
}

/// A three-tier stack of 16 KB pages, both pools big enough to hold the
/// whole database, with snapshots and one table.
fn three_tier() -> Database {
    const PAGE16: usize = 16 * 1024;
    let config = BufferManagerConfig::builder()
        .page_size(PAGE16)
        .dram_capacity(32 * PAGE16)
        .nvm_capacity(64 * (PAGE16 + 64))
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

/// Serve everything where it lies: SSD misses land on NVM, nothing is
/// promoted.
fn stay() -> MigrationPolicy {
    MigrationPolicy::new(0.0, 0.0, 1.0, 1.0)
}

#[test]
fn home_flush_drops_the_shadowed_nvm_copy_and_leaves_nvm_dirt_in_place() {
    let db = three_tier();
    let bm = Arc::clone(db.buffer_manager());
    write_all(&db, &(0..20).map(|k| (k, 1)).collect::<Vec<_>>());
    db.checkpoint().unwrap();

    // Page `over` ends dirty in DRAM over an older, dirty NVM copy; page
    // `nvm` dirty on NVM only.
    bm.admin().set_policy(stay());
    let (over, nvm) = (bm.allocate_page().unwrap(), bm.allocate_page().unwrap());
    for pid in [over, nvm] {
        let g = bm.fetch_write(pid).unwrap();
        assert_eq!(g.tier(), Tier::Nvm);
        g.write_u64(0, 1).unwrap();
    }
    bm.admin()
        .set_policy(MigrationPolicy::new(1.0, 1.0, 1.0, 1.0));
    let g = bm.fetch_write(over).unwrap();
    assert_eq!(g.tier(), Tier::Dram, "promoted over its NVM copy");
    g.write_u64(0, 2).unwrap();
    drop(g);
    bm.admin().set_policy(stay());
    // The database's own NVM copies are dirty too: writes land on NVM.
    let (dram_dirty, nvm_dirty) = bm.dirty_pages();
    assert_eq!(dram_dirty, 1);

    let stats = |tier| bm.device_stats(tier).unwrap().snapshot();
    let (nvm0, ssd0, m0) = (stats(Tier::Nvm), stats(Tier::Ssd), bm.metrics());
    let ckpt = db.checkpoint().unwrap();
    let nvm_wrote = stats(Tier::Nvm).delta(&nvm0);
    let ssd_wrote = stats(Tier::Ssd).delta(&ssd0);
    // One page home; its NVM copy costs one 16-byte header write — the
    // device charges it as one media line — not a 16 KB reconcile.
    assert_eq!(ckpt.pages, 1);
    assert_eq!(ssd_wrote.write_ops, 1, "`nvm` gets no SSD write");
    assert_eq!(nvm_wrote.write_ops, 1);
    let header = DeviceProfile::optane_pmm().effective_transfer(16) as u64;
    assert_eq!(nvm_wrote.bytes_written, header);
    assert_eq!(bm.metrics().delta(&m0).nvm_home_drops, 1);
    assert_eq!(
        bm.dirty_pages(),
        (0, nvm_dirty - 1),
        "NVM dirt stays where it is; only `over`'s copy went"
    );

    // After a crash `over` comes from its home, `nvm` from the NVM buffer.
    db.simulate_crash();
    db.recover().unwrap();
    let read = |pid: PageId| {
        let fetched = bm.metrics().ssd_fetches;
        let word = bm.fetch_read(pid).unwrap().read_u64(0).unwrap();
        (word, bm.metrics().ssd_fetches - fetched)
    };
    assert_eq!(read(over), (2, 1), "the home image is the DRAM copy");
    assert_eq!(read(nvm), (1, 0), "adopted from NVM");
}

#[test]
fn a_checkpoint_under_a_live_write_guard_installs() {
    let db = database();
    let store = db.snapshots();
    let bm = Arc::clone(db.buffer_manager());
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..20).map(|k| (k, 1)).collect::<Vec<_>>());
    (0..20u64).for_each(|k| {
        model.insert(k, 1);
    });
    db.checkpoint().unwrap();
    write_all(&db, &[(3, 0xE3)]);
    model.insert(3, 0xE3);

    // A writer holding the guard its SSD miss loaded into DRAM, pinned
    // under the descriptor mutex: the home flush writes the copy anyway
    // and leaves it dirty.
    bm.admin()
        .set_policy(MigrationPolicy::new(1.0, 1.0, 0.0, 1.0));
    let pid = bm.allocate_page().unwrap();
    let guard = bm.fetch_write(pid).unwrap();
    assert_eq!(guard.tier(), Tier::Dram);
    guard.write_u64(0, 7).unwrap();
    assert_eq!(db.checkpoint().unwrap().generation, 2);
    assert_eq!(store.generation(), 2);
    assert_eq!(bm.dirty_pages().0, 1, "the pinned copy stays dirty");

    drop(guard);
    db.simulate_crash();
    assert_eq!(db.recover().unwrap().snapshot_generation, 2);
    assert_contents(&db, &model, 24);
    assert_eq!(bm.fetch_read(pid).unwrap().read_u64(0).unwrap(), 7);
}

#[test]
fn checkpoint_is_contended_while_a_dirty_page_is_left_behind() {
    // Fine-grained DRAM copies (DESIGN.md §8.2); the database's own pages
    // stay on NVM, where no flush is owed.
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(64 * PAGE)
        .nvm_capacity(256 * (PAGE + 64))
        .policy(stay())
        .fine_grained(256)
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    let db = Database::create(Arc::clone(&bm), DbConfig::default()).unwrap();
    db.create_table(T, TUPLE).unwrap();
    let store = db.snapshots();
    write_all(&db, &(0..20).map(|k| (k, 1)).collect::<Vec<_>>());
    db.checkpoint().unwrap();

    // A dirty fine-grained copy, promoted over the page's NVM copy: no
    // flush can claim it, so the checkpoint leaves it behind.
    let pid = bm.allocate_page().unwrap();
    drop(bm.fetch_read(pid).unwrap());
    bm.admin()
        .set_policy(MigrationPolicy::new(1.0, 1.0, 1.0, 1.0));
    let guard = bm.fetch_write(pid).unwrap();
    assert_eq!(guard.tier(), Tier::Dram);
    guard.write_u64(0, 7).unwrap();
    drop(guard);
    bm.admin().set_policy(stay());
    assert_eq!(bm.dirty_pages().0, 1);
    let before = (
        store.generation(),
        db.wal().log_bytes(),
        store.generations(),
        store.stats().write_ops,
    );
    assert_eq!(db.checkpoint().unwrap_err(), TxnError::CheckpointContended);
    let after = (
        store.generation(),
        db.wal().log_bytes(),
        store.generations(),
        store.stats().write_ops,
    );
    assert_eq!(after, before, "the WAL and the store are untouched");
}

/// Creating a table and growing it write no page to a buffer device: the
/// page list is volatile until a checkpoint stores it, so a new page costs
/// `allocate_page`'s zero image on SSD and nothing else — no NVM write and
/// no SSD sync.
#[test]
fn table_growth_writes_no_page_to_a_buffer_device() {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(256 * PAGE)
        .nvm_capacity(256 * (PAGE + 64))
        .policy(MigrationPolicy::eager())
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    let db = Database::create(Arc::clone(&bm), DbConfig::default()).unwrap();
    let stats = |tier| bm.device_stats(tier).unwrap().snapshot();
    let (nvm0, ssd0, pages0, m0) = (
        stats(Tier::Nvm),
        stats(Tier::Ssd),
        bm.page_count(),
        bm.metrics(),
    );
    db.create_table(T, TUPLE).unwrap();
    const GROWTH: usize = 8;
    let mut key = 0;
    while db.table_data_pages(T).unwrap().len() < GROWTH {
        write_all(&db, &[(key, key as u8)]);
        key += 1;
    }
    let (nvm, ssd) = (stats(Tier::Nvm).delta(&nvm0), stats(Tier::Ssd).delta(&ssd0));
    let m = bm.metrics().delta(&m0);
    assert_eq!(
        (m.evictions_dram, m.evictions_nvm),
        (0, 0),
        "DRAM holds all"
    );
    assert_eq!((nvm.write_ops, nvm.bytes_written), (0, 0), "no NVM write");
    assert_eq!(ssd.fences, 0, "no SSD sync");
    let allocated = bm.page_count() - pages0;
    assert!(allocated >= GROWTH as u64);
    assert_eq!(
        (ssd.write_ops, ssd.bytes_written),
        (
            allocated,
            allocated * DeviceProfile::optane_ssd().effective_transfer(PAGE) as u64
        ),
        "one zero image per allocated page"
    );
}

/// Grow table `T` by a few pages and create table 2 (once) with keys of
/// its own, recording what was written in `model`: `(table, key) → byte`.
fn grow_and_create(db: &Database, model: &mut std::collections::HashMap<(u32, u64), u8>, byte: u8) {
    let first = model.keys().filter(|&&(t, _)| t == T).count() as u64;
    write_all(
        db,
        &(first..first + 30).map(|k| (k, byte)).collect::<Vec<_>>(),
    );
    (first..first + 30).for_each(|k| {
        model.insert((T, k), byte);
    });
    if db.create_table(2, TUPLE).is_ok() {
        let mut txn = db.begin();
        for k in 0..20 {
            db.insert(&mut txn, 2, k, &tuple(byte ^ 0x22)).unwrap();
            model.insert((2, k), byte ^ 0x22);
        }
        db.commit(&mut txn).unwrap();
    }
}

fn assert_tables(db: &Database, model: &std::collections::HashMap<(u32, u64), u8>) {
    let mut txn = db.begin();
    for (&(table, key), &b) in model {
        assert_eq!(db.read(&txn, table, key), Ok(tuple(b)), "{table}/{key}");
    }
    db.commit(&mut txn).unwrap();
}

/// A table's page list is the generation's page run plus what the tail
/// adds: after a crash, a table that grew past the fence keeps the fence's
/// pages as its prefix and gets the rest from replay, and a table the tail
/// created is rebuilt from its `CreateTable` record and its writes.
#[test]
fn recovery_rebuilds_the_page_list_from_the_run_and_the_tail() {
    let db = database();
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..40).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..40u64).for_each(|k| {
        model.insert((T, k), k as u8);
    });
    db.checkpoint().unwrap();
    let at_fence = db.table_data_pages(T).unwrap();

    grow_and_create(&db, &mut model, 0x51);
    let grown = db.table_data_pages(T).unwrap();
    assert!(grown.len() > at_fence.len() && grown.starts_with(&at_fence));

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1);
    assert_tables(&db, &model);
    let rebuilt = db.table_data_pages(T).unwrap();
    assert_eq!(rebuilt.len(), grown.len());
    assert!(rebuilt.starts_with(&at_fence), "the run is the prefix");
    assert!(!db.table_data_pages(2).unwrap().is_empty());

    // The next generation stores the rebuilt lists.
    db.checkpoint().unwrap();
    db.simulate_crash();
    assert_eq!(db.recover().unwrap().redone, 0);
    assert_eq!(db.table_data_pages(T).unwrap(), rebuilt);
    assert_tables(&db, &model);
}

/// The same over the fallback generation: the tables grow between two
/// fences, the newest generation rots, and recovery rebuilds the growth
/// from the older generation's page run and the longer tail.
#[test]
fn a_fallback_rebuilds_the_page_list_from_the_older_run() {
    let db = database();
    let store = db.snapshots();
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..40).map(|k| (k, k as u8)).collect::<Vec<_>>());
    (0..40u64).for_each(|k| {
        model.insert((T, k), k as u8);
    });
    db.checkpoint().unwrap();
    let at_older = db.table_data_pages(T).unwrap();
    grow_and_create(&db, &mut model, 0x61);
    db.checkpoint().unwrap();
    grow_and_create(&db, &mut model, 0x62);
    let grown = db.table_data_pages(T).unwrap().len();

    let manifest = store.entry(2).unwrap().manifest;
    store.device().write_page(manifest, &[0xEE; PAGE]).unwrap();
    store.device().sync().unwrap();
    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.snapshot_generation, 1, "fell back");
    assert_tables(&db, &model);
    let rebuilt = db.table_data_pages(T).unwrap();
    assert_eq!(rebuilt.len(), grown);
    assert!(rebuilt.starts_with(&at_older));
}

/// A page the table gained after the fence is in no page run: replay
/// rebuilds it under a fresh id, and recovery drops the old page's NVM
/// copy instead of keeping a frame of garbage with data dirt.
#[test]
fn recovery_drops_the_nvm_copies_of_pages_added_after_the_fence() {
    let db = three_tier();
    let bm = Arc::clone(db.buffer_manager());
    bm.admin().set_policy(stay());
    let mut model = std::collections::HashMap::new();
    write_all(&db, &(0..20).map(|k| (k, 1)).collect::<Vec<_>>());
    db.checkpoint().unwrap();
    let at_fence = db.table_data_pages(T).unwrap();
    for batch in (20..400u64).collect::<Vec<_>>().chunks(40) {
        write_all(&db, &batch.iter().map(|&k| (k, 2)).collect::<Vec<_>>());
    }
    (0..400u64).for_each(|k| {
        model.insert(k, if k < 20 { 1 } else { 2 });
    });
    let grown = db.table_data_pages(T).unwrap();
    let added = grown[at_fence.len()..].to_vec();
    assert!(!added.is_empty());
    assert!(added.iter().all(|&pid| !bm.is_dram_resident(pid)), "on NVM");

    db.simulate_crash();
    db.recover().unwrap();
    let ssd_reads = |pid: PageId| {
        let fetched = bm.metrics().ssd_fetches;
        drop(bm.fetch_read(pid).unwrap());
        bm.metrics().ssd_fetches - fetched
    };
    assert_eq!(
        ssd_reads(at_fence[0]),
        0,
        "a listed page keeps its NVM copy"
    );
    for pid in added {
        assert_eq!(ssd_reads(pid), 1, "{pid:?}: its NVM copy was dropped");
    }
    assert_contents(&db, &model, 400);
}
