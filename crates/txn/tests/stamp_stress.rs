//! Read stamps under churn: transactional readers and writers racing on a
//! stack whose buffer pools are a fraction of the table, while a
//! maintenance thread cycles every page through SSD.
//!
//! Writers update a key pair `(2i, 2i + 1)` to one byte in one
//! transaction; readers read both keys of a pair in one transaction and
//! must see them equal. That is what MVTO promises, and what a lost read
//! stamp breaks as soon as a writer older than the reader can still pass
//! its checks after the reader judged itself the oldest active
//! transaction (`Database::read_into`): the writer supersedes the first
//! key under the reader's feet and the reader sees the writer's second.
//! The races need optimized timing; CI runs this in release mode, debug
//! builds run a short version. A rule that stamps hints too freely (every
//! read stamp a hint) fails within tens of thousands of reader
//! transactions. The two orderings that make "oldest" trustworthy — a
//! timestamp drawn under the `active` lock, a retire after validation —
//! guard windows a few instructions wide that a thread must be preempted
//! inside; this test rarely catches them, and the exhaustive
//! `oldest_reader_rule` model check in `spitfire-modelcheck` is what pins
//! them (CHANGES.md has the runs).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::TimeScale;
use spitfire_txn::{Database, DbConfig, TxnError};

const PAGE: usize = 1024;
const T: u32 = 1;
const TUPLE: usize = 64;
const PAIRS: u64 = 8;
/// Reader transactions per reader thread.
const READS: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    1_000_000
};

/// A pseudo-random pair index for thread `seed`'s `n`-th transaction.
fn pair(seed: u64, n: u64) -> u64 {
    let x = (seed << 32 | n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 40) % PAIRS
}

fn write_pair(db: &Database, i: u64, byte: u8) -> Result<(), TxnError> {
    let mut txn = db.begin();
    let payload = [byte; TUPLE];
    let result = db
        .update(&mut txn, T, 2 * i, &payload)
        .and_then(|()| db.update(&mut txn, T, 2 * i + 1, &payload))
        .and_then(|()| db.commit(&mut txn));
    if txn.is_active() {
        db.abort(&mut txn)?;
    }
    result
}

#[test]
fn readers_see_whole_pairs_while_pages_cycle_through_ssd() {
    // 8 + 8 frames under a table that grows to thousands of pages (the
    // maintenance thread vacuums behind the writers, and checkpoints so
    // that the vacuumed slots are reused): about a quarter of all fetches
    // miss to SSD.
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(8 * PAGE)
        .nvm_capacity(8 * (PAGE + 64))
        .policy(MigrationPolicy::lazy())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = Arc::new(BufferManager::new(config).unwrap());
    let maint = bm.maintenance();
    let db = Arc::new(Database::create(Arc::clone(&bm), DbConfig::default()).unwrap());
    db.create_table(T, TUPLE).unwrap();
    {
        let mut txn = db.begin();
        for key in 0..2 * PAIRS {
            db.insert(&mut txn, T, key, &[0u8; TUPLE]).unwrap();
        }
        db.commit(&mut txn).unwrap();
    }

    let stop = AtomicBool::new(false);
    let commits = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for n in 0u64.. {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                maint.tick();
                if n % 256 == 0 {
                    db.vacuum().unwrap();
                    match db.checkpoint() {
                        Ok(_) | Err(TxnError::CheckpointContended) => {}
                        Err(e) => panic!("checkpoint: {e}"),
                    }
                }
                std::thread::yield_now();
            }
        });
        for w in 0..2u64 {
            let (db, stop, commits) = (&db, &stop, &commits);
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Acquire) {
                    n += 1;
                    match write_pair(db, pair(w, n), n as u8) {
                        Ok(()) => {
                            // relaxed: a count read after the threads joined.
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_retryable() => {}
                        Err(e) => panic!("writer {w}: {e}"),
                    }
                    std::thread::yield_now();
                }
            });
        }
        let readers: Vec<_> = (2..4u64)
            .map(|r| {
                let db = &db;
                s.spawn(move || {
                    let (mut first, mut second) = ([0u8; TUPLE], [0u8; TUPLE]);
                    for n in 0..READS {
                        let i = pair(r, n);
                        let mut txn = db.begin();
                        db.read_into(&txn, T, 2 * i, &mut first).unwrap();
                        std::thread::yield_now();
                        db.read_into(&txn, T, 2 * i + 1, &mut second).unwrap();
                        db.commit(&mut txn).unwrap();
                        assert_eq!(
                            first[0], second[0],
                            "reader {r}, transaction {n}: pair {i} read half old, half new"
                        );
                    }
                })
            })
            .collect();
        for reader in readers {
            let outcome = reader.join();
            stop.store(true, Ordering::Release);
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let m = bm.metrics();
    assert!(commits.into_inner() > 0, "no writer committed");
    assert!(m.evictions_nvm > 0, "nothing left NVM");
    assert!(m.hint_discards > 0, "no hint was ever dropped");
}
