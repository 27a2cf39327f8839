//! Property test: crash recovery must preserve exactly the committed
//! prefix of work, for arbitrary transaction schedules and crash points.

use std::sync::Arc;

use proptest::prelude::*;
use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{PersistenceTracking, TimeScale};
use spitfire_txn::{Database, DbConfig, TxnError};

const PAGE: usize = 1024;
const T: u32 = 1;
const TUPLE: usize = 64;
const KEYS: u64 = 16;

/// One scripted transaction: a set of key writes, then commit or abort.
#[derive(Debug, Clone)]
struct ScriptedTxn {
    writes: Vec<(u64, u8)>,
    commit: bool,
}

fn txn_strategy() -> impl Strategy<Value = ScriptedTxn> {
    (
        proptest::collection::vec((0..KEYS, any::<u8>()), 1..5),
        prop::bool::weighted(0.8),
    )
        .prop_map(|(writes, commit)| ScriptedTxn { writes, commit })
}

fn database() -> Database {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(16 * PAGE)
        .nvm_capacity(128 * (PAGE + 64))
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn committed_prefix_survives_any_crash_point(
        txns in proptest::collection::vec(txn_strategy(), 1..20),
        crash_after in 0..20usize,
        checkpoint_at in proptest::option::of(0..20usize),
        in_flight_writes in proptest::collection::vec((0..KEYS, any::<u8>()), 0..4),
    ) {
        let db = database();
        // Model of committed state only.
        let mut model: std::collections::HashMap<u64, u8> = Default::default();

        let crash_after = crash_after.min(txns.len());
        for (i, script) in txns.iter().take(crash_after).enumerate() {
            if checkpoint_at == Some(i) {
                db.checkpoint().unwrap();
            }
            let mut txn = db.begin();
            let mut applied = Vec::new();
            let mut failed = false;
            for &(key, byte) in &script.writes {
                let payload = vec![byte; TUPLE];
                let result = match db.update(&mut txn, T, key, &payload) {
                    Err(TxnError::NotFound) => db.insert(&mut txn, T, key, &payload),
                    other => other,
                };
                match result {
                    Ok(()) => applied.push((key, byte)),
                    Err(TxnError::Conflict | TxnError::Duplicate) => {
                        failed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            if failed || !script.commit {
                db.abort(&mut txn).unwrap();
            } else if db.commit(&mut txn).is_ok() {
                for (key, byte) in applied {
                    model.insert(key, byte);
                }
            }
        }

        // Leave one transaction in flight across the crash.
        let mut dangling = db.begin();
        for &(key, byte) in &in_flight_writes {
            let payload = vec![byte; TUPLE];
            let _ = match db.update(&mut dangling, T, key, &payload) {
                Err(TxnError::NotFound) => db.insert(&mut dangling, T, key, &payload),
                other => other,
            };
        }

        db.simulate_crash();
        db.recover().unwrap();

        let t = db.begin();
        for key in 0..KEYS {
            match model.get(&key) {
                Some(&byte) => {
                    let got = db.read(&t, T, key).unwrap();
                    prop_assert_eq!(
                        got[0], byte,
                        "key {} has {} but committed value was {}", key, got[0], byte
                    );
                    prop_assert!(got.iter().all(|&b| b == byte));
                }
                None => {
                    prop_assert!(
                        matches!(db.read(&t, T, key), Err(TxnError::NotFound)),
                        "key {} should not exist", key
                    );
                }
            }
        }
    }

    /// Crash-point granularity of individual writes: the crash lands
    /// after the `crash_write`-th write *inside* a transaction, so the
    /// interrupted transaction must recover as a loser — none of its
    /// writes may survive, while every earlier committed transaction
    /// must survive in full.
    #[test]
    fn mid_transaction_crash_makes_the_txn_a_loser(
        txns in proptest::collection::vec(txn_strategy(), 1..12),
        crash_txn in 0..12usize,
        crash_write in 0..5usize,
    ) {
        let db = database();
        let mut model: std::collections::HashMap<u64, u8> = Default::default();

        let crash_txn = crash_txn.min(txns.len() - 1);
        'outer: for (i, script) in txns.iter().enumerate() {
            let mut txn = db.begin();
            let mut applied = Vec::new();
            let mut failed = false;
            for (j, &(key, byte)) in script.writes.iter().enumerate() {
                if i == crash_txn && j == crash_write.min(script.writes.len() - 1) {
                    // Crash mid-transaction: txn never reaches commit.
                    break 'outer;
                }
                let payload = vec![byte; TUPLE];
                let result = match db.update(&mut txn, T, key, &payload) {
                    Err(TxnError::NotFound) => db.insert(&mut txn, T, key, &payload),
                    other => other,
                };
                match result {
                    Ok(()) => applied.push((key, byte)),
                    Err(TxnError::Conflict | TxnError::Duplicate) => {
                        failed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            if failed || !script.commit {
                db.abort(&mut txn).unwrap();
            } else if db.commit(&mut txn).is_ok() {
                for (key, byte) in applied {
                    model.insert(key, byte);
                }
            }
            if i == crash_txn {
                break;
            }
        }

        db.simulate_crash();
        db.recover().unwrap();

        let t = db.begin();
        for key in 0..KEYS {
            match model.get(&key) {
                Some(&byte) => {
                    let got = db.read(&t, T, key).unwrap();
                    prop_assert!(
                        got.iter().all(|&b| b == byte),
                        "key {} recovered {} but committed value was {}", key, got[0], byte
                    );
                }
                None => {
                    prop_assert!(
                        matches!(db.read(&t, T, key), Err(TxnError::NotFound)),
                        "key {} resurrected from an uncommitted write", key
                    );
                }
            }
        }
    }
}
