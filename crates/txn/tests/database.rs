//! End-to-end tests for the transactional database: MVTO semantics,
//! commit durability, abort rollback, crash recovery.

use std::sync::Arc;

use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{
    DeviceKind, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, PersistenceTracking,
    TimeScale, Trigger,
};
use spitfire_txn::{Database, DbConfig, LogRecord, RecordKind, TxnError, NO_RID};

const PAGE: usize = 1024;
const T: u32 = 1;
const TUPLE: usize = 100;

fn database() -> Database {
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
    db
}

fn tuple(b: u8) -> Vec<u8> {
    vec![b; TUPLE]
}

/// Commit `key` = `tuple(byte)`, updating or inserting.
fn put(db: &Database, key: u64, byte: u8) {
    let mut t = db.begin();
    match db.update(&mut t, T, key, &tuple(byte)) {
        Err(TxnError::NotFound) => db.insert(&mut t, T, key, &tuple(byte)).unwrap(),
        other => other.unwrap(),
    }
    db.commit(&mut t).unwrap();
}

/// What a fresh transaction reads for `key`.
fn get(db: &Database, key: u64) -> Result<Vec<u8>, TxnError> {
    let mut t = db.begin();
    let got = db.read(&t, T, key);
    db.abort(&mut t).unwrap();
    got
}

/// A one-shot fault of `kind` on the `n`-th `op` of a `device`.
fn one_shot(n: u64, device: DeviceKind, op: FaultOp, kind: FaultKind) -> Arc<FaultInjector> {
    let plan = FaultPlan::new(n).rule(
        FaultRule::any(Trigger::NthOp(n), kind)
            .on_device(device)
            .on_op(op),
    );
    Arc::new(FaultInjector::new(plan))
}

/// A fatal fault on the next write to the NVM log ring: the next append
/// fails.
fn fail_next_log_append(db: &Database) {
    let fault = one_shot(1, DeviceKind::Nvm, FaultOp::Write, FaultKind::Fatal);
    db.wal().set_fault_injector(Some(fault));
}

#[test]
fn insert_commit_read() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 1, &tuple(0xAA)).unwrap();
    db.insert(&mut t1, T, 2, &tuple(0xBB)).unwrap();
    // Own writes visible before commit.
    assert_eq!(db.read(&t1, T, 1).unwrap(), tuple(0xAA));
    db.commit(&mut t1).unwrap();

    let t2 = db.begin();
    assert_eq!(db.read(&t2, T, 1).unwrap(), tuple(0xAA));
    assert_eq!(db.read(&t2, T, 2).unwrap(), tuple(0xBB));
    assert_eq!(db.read(&t2, T, 3).unwrap_err(), TxnError::NotFound);
}

#[test]
fn uncommitted_writes_invisible_to_others() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 1, &tuple(1)).unwrap();
    db.commit(&mut t1).unwrap();

    let mut t2 = db.begin();
    db.update(&mut t2, T, 1, &tuple(2)).unwrap();
    // A later reader sees the old committed version, not t2's pending one.
    let t3 = db.begin();
    assert_eq!(db.read(&t3, T, 1).unwrap(), tuple(1));
    db.commit(&mut t2).unwrap_err(); // t3 (later ts) read the old version
                                     // After t2's failed commit (conflict -> rollback), value stays 1.
    let t4 = db.begin();
    assert_eq!(db.read(&t4, T, 1).unwrap(), tuple(1));
}

#[test]
fn update_chain_visibility_by_timestamp() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 5, &tuple(10)).unwrap();
    db.commit(&mut t1).unwrap();

    // A long-running reader that started before the update.
    let old_reader = db.begin();

    let mut t2 = db.begin();
    db.update(&mut t2, T, 5, &tuple(20)).unwrap();
    db.commit(&mut t2).unwrap();

    // The old reader still sees the first version (snapshot isolation via
    // timestamps); a fresh reader sees the new one.
    assert_eq!(db.read(&old_reader, T, 5).unwrap(), tuple(10));
    let fresh = db.begin();
    assert_eq!(db.read(&fresh, T, 5).unwrap(), tuple(20));
}

#[test]
fn write_write_conflict_aborts_second_writer() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 9, &tuple(1)).unwrap();
    db.commit(&mut t1).unwrap();

    let mut t2 = db.begin();
    let mut t3 = db.begin();
    db.update(&mut t2, T, 9, &tuple(2)).unwrap();
    // t3 hits t2's uncommitted marker.
    assert_eq!(
        db.update(&mut t3, T, 9, &tuple(3)).unwrap_err(),
        TxnError::Conflict
    );
    db.abort(&mut t3).unwrap();
    db.commit(&mut t2).unwrap();
    let t4 = db.begin();
    assert_eq!(db.read(&t4, T, 9).unwrap(), tuple(2));
}

#[test]
fn stale_writer_rejected_by_read_timestamp() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 3, &tuple(1)).unwrap();
    db.commit(&mut t1).unwrap();

    let mut old_writer = db.begin(); // earlier timestamp
    let newer_reader = db.begin(); // later timestamp
    assert_eq!(db.read(&newer_reader, T, 3).unwrap(), tuple(1));
    // The version was read at a later timestamp; the older writer cannot
    // supersede it without violating timestamp order.
    assert_eq!(
        db.update(&mut old_writer, T, 3, &tuple(2)).unwrap_err(),
        TxnError::Conflict
    );
    db.abort(&mut old_writer).unwrap();
}

#[test]
fn abort_rolls_back_inserts_and_updates() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 1, &tuple(1)).unwrap();
    db.commit(&mut t1).unwrap();

    let mut t2 = db.begin();
    db.update(&mut t2, T, 1, &tuple(99)).unwrap();
    db.insert(&mut t2, T, 2, &tuple(98)).unwrap();
    db.abort(&mut t2).unwrap();

    let t3 = db.begin();
    assert_eq!(db.read(&t3, T, 1).unwrap(), tuple(1));
    assert_eq!(db.read(&t3, T, 2).unwrap_err(), TxnError::NotFound);
    // The key can be re-inserted after the abort.
    let mut t4 = db.begin();
    db.insert(&mut t4, T, 2, &tuple(50)).unwrap();
    db.commit(&mut t4).unwrap();
}

#[test]
fn duplicate_insert_rejected() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 7, &tuple(1)).unwrap();
    db.commit(&mut t1).unwrap();
    let mut t2 = db.begin();
    assert_eq!(
        db.insert(&mut t2, T, 7, &tuple(2)).unwrap_err(),
        TxnError::Duplicate
    );
    db.abort(&mut t2).unwrap();
}

#[test]
fn finished_transactions_are_inert() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 1, &tuple(1)).unwrap();
    db.commit(&mut t1).unwrap();
    assert_eq!(
        db.commit(&mut t1).unwrap_err(),
        TxnError::InactiveTransaction
    );
    assert_eq!(
        db.read(&t1, T, 1).unwrap_err(),
        TxnError::InactiveTransaction
    );
    let mut t2 = db.begin();
    assert_eq!(
        db.update(&mut t1, T, 1, &tuple(2)).unwrap_err(),
        TxnError::InactiveTransaction
    );
    db.abort(&mut t2).unwrap();
    assert_eq!(
        db.abort(&mut t2).unwrap_err(),
        TxnError::InactiveTransaction
    );
}

#[test]
fn scan_returns_visible_committed_tuples() {
    let db = database();
    let mut t1 = db.begin();
    for k in (10..40).step_by(3) {
        db.insert(&mut t1, T, k, &tuple(k as u8)).unwrap();
    }
    db.commit(&mut t1).unwrap();
    // An uncommitted insert must not appear in others' scans.
    let mut t2 = db.begin();
    db.insert(&mut t2, T, 11, &tuple(0xEE)).unwrap();

    let t3 = db.begin();
    let hits = db.scan(&t3, T, 10, 5).unwrap();
    assert_eq!(
        hits.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        vec![10, 13, 16, 19, 22]
    );
    assert_eq!(hits[0].1, tuple(10));
    db.abort(&mut t2).unwrap();
}

#[test]
fn committed_transactions_survive_crash() {
    let db = database();
    let mut t1 = db.begin();
    for k in 0..20u64 {
        db.insert(&mut t1, T, k, &tuple(k as u8)).unwrap();
    }
    db.commit(&mut t1).unwrap();
    let mut t2 = db.begin();
    db.update(&mut t2, T, 3, &tuple(0xC3)).unwrap();
    db.commit(&mut t2).unwrap();

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.committed, 2);
    assert_eq!(stats.losers, 0);
    assert_eq!(stats.redone, 21);

    let t = db.begin();
    for k in 0..20u64 {
        let want = if k == 3 { tuple(0xC3) } else { tuple(k as u8) };
        assert_eq!(db.read(&t, T, k).unwrap(), want, "key {k}");
    }
}

#[test]
fn uncommitted_transactions_are_undone_by_recovery() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 1, &tuple(1)).unwrap();
    db.commit(&mut t1).unwrap();

    // In-flight at crash time: never committed.
    let mut t2 = db.begin();
    db.update(&mut t2, T, 1, &tuple(0xBA)).unwrap();
    db.insert(&mut t2, T, 2, &tuple(0xBB)).unwrap();

    db.simulate_crash();
    let stats = db.recover().unwrap();
    assert_eq!(stats.committed, 1);
    assert_eq!(stats.losers, 1);
    assert_eq!(stats.undone, 2);

    let t = db.begin();
    assert_eq!(
        db.read(&t, T, 1).unwrap(),
        tuple(1),
        "loser update rolled back"
    );
    assert_eq!(
        db.read(&t, T, 2).unwrap_err(),
        TxnError::NotFound,
        "loser insert gone"
    );
}

#[test]
fn recovery_after_checkpoint_replays_only_the_tail() {
    let db = database();
    let mut t1 = db.begin();
    for k in 0..10u64 {
        db.insert(&mut t1, T, k, &tuple(k as u8)).unwrap();
    }
    db.commit(&mut t1).unwrap();
    db.checkpoint().unwrap();

    let mut t2 = db.begin();
    db.update(&mut t2, T, 5, &tuple(0x55)).unwrap();
    db.commit(&mut t2).unwrap();

    db.simulate_crash();
    let stats = db.recover().unwrap();
    // Only the post-checkpoint transaction is in the log.
    assert_eq!(stats.committed, 1);
    assert_eq!(stats.redone, 1);

    let t = db.begin();
    for k in 0..10u64 {
        let want = if k == 5 { tuple(0x55) } else { tuple(k as u8) };
        assert_eq!(db.read(&t, T, k).unwrap(), want, "key {k}");
    }
}

#[test]
fn a_logged_write_to_an_unknown_table_fails_recovery() {
    let db = database();
    db.wal()
        .append(&LogRecord {
            kind: RecordKind::Update,
            txn: 1,
            table: 9,
            key: 1,
            rid: 0,
            prev_rid: NO_RID,
            prev_lsn: u64::MAX,
            payload: &tuple(1),
        })
        .unwrap();
    db.simulate_crash();
    assert_eq!(db.recover().unwrap_err(), TxnError::UnknownTable(9));
}

#[test]
fn create_table_refuses_a_duplicate_id() {
    let db = database();
    let mut t1 = db.begin();
    db.insert(&mut t1, T, 1, &tuple(1)).unwrap();
    db.commit(&mut t1).unwrap();
    assert_eq!(db.create_table(T, TUPLE).unwrap_err(), TxnError::Duplicate);
    let t = db.begin();
    assert_eq!(db.read(&t, T, 1).unwrap(), tuple(1));

    db.simulate_crash();
    db.recover().unwrap();
    let t = db.begin();
    assert_eq!(db.read(&t, T, 1).unwrap(), tuple(1));
}

#[test]
fn create_table_refuses_a_table_the_manifest_could_not_list() {
    // (1024 - a 48-byte block header - 56 fixed manifest bytes) / 16
    // bytes a table.
    const MAX: u32 = 57;
    let db = database();
    for t in T + 1..=MAX {
        db.create_table(t, TUPLE).unwrap();
    }
    let refused = TxnError::TooManyTables(MAX as usize);
    assert_eq!(db.create_table(MAX + 1, TUPLE).unwrap_err(), refused);

    // A manifest listing every table fits its block.
    db.checkpoint().unwrap();
    db.simulate_crash();
    assert_eq!(db.recover().unwrap().snapshot_generation, 1);
    for t in T..=MAX {
        db.table_data_pages(t).unwrap();
    }
    assert_eq!(db.create_table(MAX + 1, TUPLE).unwrap_err(), refused);
}

#[test]
fn repeated_crash_recover_cycles_are_stable() {
    let db = database();
    let mut expected: Vec<(u64, u8)> = Vec::new();
    for round in 0..4u8 {
        let mut t = db.begin();
        let k = round as u64;
        db.insert(&mut t, T, 100 + k, &tuple(round)).unwrap();
        db.commit(&mut t).unwrap();
        expected.push((100 + k, round));
        db.simulate_crash();
        db.recover().unwrap();
        let t = db.begin();
        for (key, b) in &expected {
            assert_eq!(
                db.read(&t, T, *key).unwrap(),
                tuple(*b),
                "round {round} key {key}"
            );
        }
    }
}

#[test]
fn concurrent_transfer_invariant() {
    // Bank transfers between 8 accounts: total balance is conserved under
    // concurrent conflicting transactions.
    let db = Arc::new(database());
    const ACCOUNTS: u64 = 8;
    const INITIAL: u64 = 1000;
    {
        let mut t = db.begin();
        for a in 0..ACCOUNTS {
            let mut payload = tuple(0);
            payload[..8].copy_from_slice(&INITIAL.to_le_bytes());
            db.insert(&mut t, T, a, &payload).unwrap();
        }
        db.commit(&mut t).unwrap();
    }
    let handles: Vec<_> = (0..4u64)
        .map(|tid| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut committed = 0u64;
                let mut x = tid + 1;
                for _ in 0..200 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = x % ACCOUNTS;
                    let to = (x >> 8) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let mut t = db.begin();
                    let result = (|| -> Result<(), TxnError> {
                        let src = db.read(&t, T, from)?;
                        let dst = db.read(&t, T, to)?;
                        let mut s = u64::from_le_bytes(src[..8].try_into().unwrap());
                        let mut d = u64::from_le_bytes(dst[..8].try_into().unwrap());
                        if s == 0 {
                            return Ok(());
                        }
                        s -= 1;
                        d += 1;
                        let mut sp = tuple(0);
                        sp[..8].copy_from_slice(&s.to_le_bytes());
                        let mut dp = tuple(0);
                        dp[..8].copy_from_slice(&d.to_le_bytes());
                        db.update(&mut t, T, from, &sp)?;
                        db.update(&mut t, T, to, &dp)?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => {
                            if db.commit(&mut t).is_ok() {
                                committed += 1;
                            }
                        }
                        Err(_) => {
                            let _ = db.abort(&mut t);
                        }
                    }
                }
                committed
            })
        })
        .collect();
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 0, "some transfers must commit");
    // Conservation check.
    let t = db.begin();
    let total: u64 = (0..ACCOUNTS)
        .map(|a| {
            let p = db.read(&t, T, a).unwrap();
            u64::from_le_bytes(p[..8].try_into().unwrap())
        })
        .sum();
    assert_eq!(total, ACCOUNTS * INITIAL, "balance must be conserved");
}

#[test]
fn a_failed_update_append_is_undone_by_abort() {
    let db = database();
    put(&db, 1, 1);
    let mut t = db.begin();
    fail_next_log_append(&db);
    let err = db.update(&mut t, T, 1, &tuple(2)).unwrap_err();
    db.wal().set_fault_injector(None);
    assert_ne!(err, TxnError::Conflict);
    db.abort(&mut t).unwrap();
    assert_eq!(get(&db, 1).unwrap(), tuple(1));
    put(&db, 1, 3);
    assert_eq!(get(&db, 1).unwrap(), tuple(3));
}

#[test]
fn a_failed_insert_append_is_undone_by_abort() {
    let db = database();
    let mut t = db.begin();
    fail_next_log_append(&db);
    let err = db.insert(&mut t, T, 1, &tuple(1)).unwrap_err();
    db.wal().set_fault_injector(None);
    assert_ne!(err, TxnError::Duplicate);
    db.abort(&mut t).unwrap();
    assert_eq!(get(&db, 1).unwrap_err(), TxnError::NotFound);
    let mut t = db.begin();
    db.insert(&mut t, T, 1, &tuple(2)).unwrap();
    db.commit(&mut t).unwrap();
    assert_eq!(get(&db, 1).unwrap(), tuple(2));
}

#[test]
fn a_failed_commit_append_rolls_the_transaction_back() {
    let db = database();
    put(&db, 1, 1);
    let mut t = db.begin();
    db.update(&mut t, T, 1, &tuple(2)).unwrap();
    db.insert(&mut t, T, 2, &tuple(2)).unwrap();
    fail_next_log_append(&db);
    let err = db.commit(&mut t).unwrap_err();
    db.wal().set_fault_injector(None);
    assert_ne!(err, TxnError::Conflict);
    assert!(!t.is_active());
    assert_eq!(get(&db, 1).unwrap(), tuple(1));
    assert_eq!(get(&db, 2).unwrap_err(), TxnError::NotFound);
    put(&db, 1, 3);
    put(&db, 2, 3);
    assert_eq!(
        (get(&db, 1).unwrap(), get(&db, 2).unwrap()),
        (tuple(3), tuple(3))
    );
}

/// The index in DRAM, the table's data pages on NVM: the index root is
/// built under an eager policy, then nothing moves (D_r = D_w = 0), so a
/// data page's first write-intent fetch lands it on NVM and every stamp
/// on it is persisted at once.
fn database_with_data_on_nvm() -> Database {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(64 * PAGE)
        .nvm_capacity(256 * (PAGE + 64))
        .policy(MigrationPolicy::eager())
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    let db = Database::create(bm, DbConfig::default()).unwrap();
    db.create_table(T, TUPLE).unwrap();
    db.buffer_manager()
        .admin()
        .set_policy(MigrationPolicy::new(0.0, 0.0, 1.0, 1.0));
    db
}

/// Fail each NVM write of one update in turn, crash and recover: the key
/// keeps its committed value and takes the next update. The superseded
/// version's `end` marker is persisted at once on NVM, so it must come
/// after the Update record that lets recovery's undo reopen it.
#[test]
fn a_crash_after_any_failed_nvm_write_of_an_update_leaves_the_key_writable() {
    let mut failed = 0;
    for k in 1.. {
        let db = database_with_data_on_nvm();
        put(&db, 1, 1);
        db.checkpoint().unwrap();
        let page = db.table_data_pages(T).unwrap()[0];
        assert!(!db.buffer_manager().is_dram_resident(page));
        let fault = one_shot(k, DeviceKind::Nvm, FaultOp::Write, FaultKind::Fatal);
        db.set_fault_injector(Some(Arc::clone(&fault)));
        let mut t = db.begin();
        let result = db.update(&mut t, T, 1, &tuple(2));
        db.set_fault_injector(None);
        if fault.stats().fatal == 0 {
            result.unwrap();
            break;
        }
        assert!(
            result.is_err(),
            "NVM write {k} failed, yet the update did not"
        );
        failed += 1;
        db.simulate_crash();
        db.recover().unwrap();
        assert_eq!(get(&db, 1).unwrap(), tuple(1), "NVM write {k}");
        let mut t = db.begin();
        db.update(&mut t, T, 1, &tuple(3))
            .unwrap_or_else(|e| panic!("after a fault on NVM write {k}: {e}"));
        db.commit(&mut t).unwrap();
        assert_eq!(get(&db, 1).unwrap(), tuple(3), "NVM write {k}");
    }
    // The new version, the Update frame and the `end` marker.
    assert!(failed >= 3, "{failed} NVM writes");
}

/// A log-file page torn by the device (which reported the write and the
/// sync as done): recovery keeps the clean prefix and the log continues
/// from its end, so what is committed after the restart survives the next
/// crash. Without the cut, the next drain appended behind the tear and
/// every later scan stopped at it.
#[test]
fn after_a_torn_log_page_the_log_continues_from_its_clean_end() {
    let db = database();
    for k in 0..3u64 {
        put(&db, k, k as u8);
    }
    db.wal().drain().unwrap();
    // More than one 16 KB log page of records for key 99: whatever the
    // tear keeps of the drain's first page, it loses some of it.
    for i in 0..100u64 {
        put(&db, 99, i as u8);
    }
    let tear = one_shot(1, DeviceKind::Ssd, FaultOp::Write, FaultKind::TornWrite);
    db.wal().set_fault_injector(Some(Arc::clone(&tear)));
    db.wal().drain().unwrap();
    db.wal().set_fault_injector(None);
    assert_eq!(tear.stats().torn, 1);
    db.simulate_crash();
    db.recover().unwrap();
    let survivor = get(&db, 99).ok();
    for k in 10..13u64 {
        put(&db, k, k as u8);
    }
    db.simulate_crash();
    db.recover().unwrap();
    for k in (0..3).chain(10..13) {
        assert_eq!(get(&db, k), Ok(tuple(k as u8)), "key {k}");
    }
    assert_eq!(get(&db, 99).ok(), survivor);
    assert!(!db.wal().read_from(db.wal().base()).unwrap().corrupt);
}
