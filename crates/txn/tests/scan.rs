//! `Database::scan` returns `limit` visible rows whenever that many exist,
//! however many invisible keys lie in between.

use std::sync::Arc;

use spitfire_core::{BufferManager, BufferManagerConfig};
use spitfire_device::TimeScale;
use spitfire_txn::{Database, DbConfig};

const T: u32 = 1;
const TUPLE: usize = 64;

fn database() -> Database {
    let config = BufferManagerConfig::builder()
        .page_size(1024)
        .dram_capacity(64 * 1024)
        .nvm_capacity(64 * (1024 + 64))
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

fn insert_range(db: &Database, keys: std::ops::Range<u64>) {
    let mut t = db.begin();
    for k in keys {
        db.insert(&mut t, T, k, &[k as u8; TUPLE]).unwrap();
    }
    db.commit(&mut t).unwrap();
}

fn keys(rows: &[(u64, Vec<u8>)]) -> Vec<u64> {
    rows.iter().map(|(k, _)| *k).collect()
}

#[test]
fn scan_continues_past_keys_the_reader_cannot_see() {
    let db = database();
    insert_range(&db, 100..110);
    let reader = db.begin();
    // 30 newer keys sort before everything the reader can see: more than
    // any fixed over-fetch of a 5-row scan covers.
    insert_range(&db, 0..30);

    let rows = db.scan(&reader, T, 0, 5).unwrap();
    assert_eq!(keys(&rows), vec![100, 101, 102, 103, 104]);
    assert_eq!(rows[0].1, vec![100u8; TUPLE]);
    // Fewer visible rows than asked for: all of them, once.
    assert_eq!(
        keys(&db.scan(&reader, T, 0, 50).unwrap()),
        (100..110).collect::<Vec<_>>()
    );
    assert_eq!(keys(&db.scan(&reader, T, 105, 50).unwrap()).len(), 5);
    assert!(db.scan(&reader, T, 0, 0).unwrap().is_empty());
    assert!(db.scan(&reader, T, 110, 5).unwrap().is_empty());
    // A reader that began after both batches sees them all, in key order.
    let late = db.begin();
    assert_eq!(
        keys(&db.scan(&late, T, 25, 8).unwrap()),
        vec![25, 26, 27, 28, 29, 100, 101, 102]
    );
}
