//! The end of every run: crash, recover, and read every key back.
//!
//! It is the durability check — a key that does not hold its last
//! acknowledged write is a lost write — and where `recover_ms` comes from.

use std::time::Instant;

use spitfire_device::TimeScale;
use spitfire_txn::{Database, RecoveryStats};

use crate::err;
use crate::oracle::Oracle;

/// What the crash → recover cycles of a run found.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Wall time of each `recover()`, in milliseconds.
    pub ms: Vec<f64>,
    /// Counters of the last `recover()`.
    pub stats: RecoveryStats,
    /// Keys that did not hold their last acknowledged write, over all cycles.
    pub lost: u64,
    /// Keys read back, over all cycles.
    pub read_back: u64,
    pub errors: Vec<String>,
}

/// One table of the crashed database and how to check a tuple of it
/// against the oracle.
pub struct Table<'a> {
    pub id: u32,
    pub tuple_bytes: usize,
    pub check: &'a dyn Fn(&mut Oracle, u32, &[u8]) -> bool,
}

/// `cycles` times: `simulate_crash()`, time `recover()` with device delays
/// on, then read every key of `table` back with delays off.
pub fn crash_and_recover(
    db: &Database,
    table: &Table<'_>,
    oracle: &mut Oracle,
    cycles: usize,
) -> Result<Recovered, String> {
    let mut out = Recovered::default();
    let mut tuple = vec![0u8; table.tuple_bytes];
    for _ in 0..cycles {
        db.set_time_scale(TimeScale::REAL);
        db.simulate_crash();
        let t = Instant::now();
        out.stats = db.recover().map_err(err("recover"))?;
        out.ms.push(t.elapsed().as_secs_f64() * 1e3);
        db.set_time_scale(TimeScale::ZERO);

        for key in 0..oracle.keys() {
            let mut txn = db.begin();
            let ok = match db.read_into(&txn, table.id, key, &mut tuple) {
                Ok(()) => (table.check)(oracle, key as u32, &tuple),
                Err(e) => {
                    if out.errors.len() < 5 {
                        out.errors.push(format!("after recover, key {key}: {e}"));
                    }
                    false
                }
            };
            out.lost += !ok as u64;
            db.commit(&mut txn).map_err(err("read-back commit"))?;
        }
        out.read_back += oracle.keys();
    }
    Ok(out)
}
