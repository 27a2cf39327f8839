//! Crash and recovery on the NVM-aware WAL (paper §5.2).
//!
//! Commits transactions, then pulls the (virtual) power cord: volatile
//! state vanishes and un-persisted NVM cache lines roll back. Recovery
//! scans the persistent NVM buffer, loads the newest snapshot generation
//! (none here, so the whole log is the tail — the table's creation
//! included), replays the tail (analysis / redo / undo), and rebuilds the
//! indexes — committed data survives, the in-flight transaction does not.
//!
//! ```sh
//! cargo run --release -p spitfire-bench --example crash_recovery
//! ```

use std::sync::Arc;

use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{PersistenceTracking, TimeScale};
use spitfire_txn::{Database, DbConfig, TxnError};

const TABLE: u32 = 1;
const TUPLE: usize = 128;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let page = 4096;
    let config = BufferManagerConfig::builder()
        .page_size(page)
        .dram_capacity(16 * page)
        .nvm_capacity(128 * (page + 64))
        .policy(MigrationPolicy::lazy())
        .persistence(PersistenceTracking::Full) // full crash simulation
        .time_scale(TimeScale::REAL)
        .build()?;
    let bm = Arc::new(BufferManager::new(config)?);
    let db = Database::create(bm, DbConfig::default())?;
    db.create_table(TABLE, TUPLE)?;

    // Committed work: survives.
    let mut t1 = db.begin();
    for k in 0..50u64 {
        db.insert(
            &mut t1,
            TABLE,
            k,
            &format!("committed row {k:02}")
                .as_bytes()
                .to_vec()
                .tap_pad(),
        )?;
    }
    db.commit(&mut t1)?;
    let mut t2 = db.begin();
    db.update(
        &mut t2,
        TABLE,
        7,
        &b"updated row 07 (v2)".to_vec().tap_pad(),
    )?;
    db.commit(&mut t2)?;
    println!(
        "committed 50 inserts + 1 update; WAL pending bytes: {}",
        db.wal().pending_bytes()
    );

    // In-flight work: must vanish.
    let mut t3 = db.begin();
    db.update(
        &mut t3,
        TABLE,
        7,
        &b"UNCOMMITTED overwrite".to_vec().tap_pad(),
    )?;
    db.insert(
        &mut t3,
        TABLE,
        999,
        &b"UNCOMMITTED insert".to_vec().tap_pad(),
    )?;
    println!("left transaction {} in flight with 2 writes...", t3.id);

    println!("\n*** CRASH ***\n");
    db.simulate_crash();

    let stats = db.recover()?;
    println!(
        "recovery: {} committed txns, {} losers; {} records redone, {} undone; \
         {} pages from the NVM scan; {} index entries rebuilt",
        stats.committed,
        stats.losers,
        stats.redone,
        stats.undone,
        stats.nvm_pages,
        stats.index_entries
    );
    println!(
        "recovery time: log read {} us, replay {} us, index rebuild {} us",
        stats.log_read_us, stats.replay_us, stats.index_us
    );

    let t = db.begin();
    let row7 = db.read(&t, TABLE, 7)?;
    println!(
        "row 7 after recovery: {:?}",
        String::from_utf8_lossy(&row7[..19])
    );
    assert!(
        row7.starts_with(b"updated row 07 (v2)"),
        "committed update must survive"
    );
    match db.read(&t, TABLE, 999) {
        Err(TxnError::NotFound) => println!("row 999 (uncommitted insert) is gone — correct."),
        other => panic!("uncommitted insert leaked: {other:?}"),
    }
    for k in 0..50u64 {
        assert!(db.read(&t, TABLE, k).is_ok(), "committed row {k} lost");
    }
    println!("all 50 committed rows intact. Recovery works.");
    Ok(())
}

/// Pad example strings to the fixed tuple size.
trait TapPad {
    fn tap_pad(self) -> Vec<u8>;
}

impl TapPad for Vec<u8> {
    fn tap_pad(mut self) -> Vec<u8> {
        self.resize(TUPLE, 0);
        self
    }
}
