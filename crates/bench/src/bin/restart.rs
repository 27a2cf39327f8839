//! Instant-restart benchmark: recovery time vs database size, with and
//! without the snapshot engine.
//!
//! The workload writes every key a fixed number of times, so the WAL
//! history grows linearly with the key count. `wal-replay` is the pre-PR
//! recovery path: no checkpoints ever run, and `Database::recover` must
//! redo the whole history — recovery time grows with the database.
//! `snapshot` attaches a snapshot engine and checkpoints every
//! `CKPT_EVERY` transactions, so recovery loads the newest generation's
//! page images and replays only the WAL tail past its fence — recovery
//! time tracks the (bounded) tail, not the history, and stays roughly
//! flat across the size sweep.
//!
//! Emits `BENCH_restart.json` (override with `--json <path>`): per mode
//! and scale, the recovery wall time plus the recovery statistics. The
//! baseline to compare a run against is the committed file.

use std::sync::Arc;
use std::time::Instant;

use spitfire_bench::{quick, write_bench_json, Reporter};
use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{PersistenceTracking, TimeScale};
use spitfire_obs::json::{self, Json};
use spitfire_txn::{Database, DbConfig, SnapshotConfig, TxnError};

const PAGE: usize = 4096;
const T: u32 = 1;
const TUPLE: usize = 256;
/// Times each key is rewritten: fixes the WAL records *per key*, so total
/// history scales linearly with the key count.
const UPDATES_PER_KEY: u64 = 4;
/// Keys per transaction (amortizes commit records without hiding them).
const BATCH: u64 = 8;
/// Snapshot mode checkpoints every this many committed transactions,
/// independent of scale — the replayable tail is bounded by one interval.
const CKPT_EVERY: u64 = 64;

struct Outcome {
    mode: &'static str,
    scale: u64,
    keys: u64,
    wal_bytes: u64,
    recover_ms: f64,
    committed: usize,
    redone: usize,
    snapshot_generation: u64,
    snapshot_pages: usize,
}

fn database() -> Arc<Database> {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(256 * PAGE)
        .nvm_capacity(512 * (PAGE + 64))
        .policy(MigrationPolicy::lazy())
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .ssd_backend(spitfire_bench::ssd_backend_from_env())
        .build()
        .expect("valid config");
    let bm = Arc::new(BufferManager::new(config).expect("buffer manager"));
    let db = Database::create(
        bm,
        DbConfig {
            log_tracking: PersistenceTracking::Full,
            ..DbConfig::default()
        },
    )
    .expect("create database");
    db.create_table(T, TUPLE).expect("create table");
    Arc::new(db)
}

/// Write every key `UPDATES_PER_KEY + 1` times (insert + updates),
/// checkpointing on the way when `ckpt_every` is set.
fn run_history(db: &Database, keys: u64, ckpt_every: Option<u64>) {
    let payload = |round: u64, k: u64| vec![(round ^ k) as u8; TUPLE];
    let mut txns = 0u64;
    for round in 0..=UPDATES_PER_KEY {
        let mut k = 0;
        while k < keys {
            let mut txn = db.begin();
            for key in k..(k + BATCH).min(keys) {
                let p = payload(round, key);
                match db.update(&mut txn, T, key, &p) {
                    Err(TxnError::NotFound) => db.insert(&mut txn, T, key, &p).unwrap(),
                    other => other.unwrap(),
                }
            }
            db.commit(&mut txn).unwrap();
            txns += 1;
            if let Some(every) = ckpt_every {
                if txns.is_multiple_of(every) {
                    db.checkpoint().expect("quiescent checkpoint");
                }
            }
            k += BATCH;
        }
    }
}

fn run_mode(mode: &'static str, scale: u64, base_keys: u64, snapshots: bool) -> Outcome {
    let db = database();
    if snapshots {
        // The explicit cadence below drives checkpoints. A short full
        // cadence keeps the recovery chain at most a few bounded deltas
        // regardless of where the sweep's last checkpoint lands.
        db.enable_snapshots(SnapshotConfig {
            full_every: 4,
            ..SnapshotConfig::default()
        });
    }
    let keys = base_keys * scale;
    run_history(&db, keys, snapshots.then_some(CKPT_EVERY));
    let wal_bytes = db.wal().log_bytes();

    db.simulate_crash();
    let t0 = Instant::now();
    let stats = db.recover().expect("recovery");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Sanity: recovered state must serve the final round's values.
    let mut txn = db.begin();
    let got = db.read(&txn, T, keys - 1).expect("recovered read");
    assert_eq!(got[0], (UPDATES_PER_KEY ^ (keys - 1)) as u8);
    db.commit(&mut txn).unwrap();

    Outcome {
        mode,
        scale,
        keys,
        wal_bytes,
        recover_ms,
        committed: stats.committed,
        redone: stats.redone,
        snapshot_generation: stats.snapshot_generation,
        snapshot_pages: stats.snapshot_pages,
    }
}

fn main() {
    let base_keys: u64 = if quick() { 128 } else { 1024 };
    let scales: &[u64] = &[1, 2, 4, 8];

    let mut r = Reporter::new(
        "restart",
        "instant restart: checkpointed recovery vs full WAL replay",
        "snapshot recovery loads the newest generation and replays only \
         the bounded tail: roughly flat across an 8x database-size sweep, \
         while WAL-replay recovery grows linearly with history",
    );
    r.headers(&[
        "mode",
        "scale",
        "keys",
        "wal bytes",
        "recover (ms)",
        "tail commits",
        "snapshot pages",
    ]);

    let mut results: Vec<Outcome> = Vec::new();
    for &mode in &["wal-replay", "snapshot"] {
        for &scale in scales {
            let o = run_mode(mode, scale, base_keys, mode == "snapshot");
            r.row(&[
                o.mode.to_string(),
                format!("{}x", o.scale),
                o.keys.to_string(),
                o.wal_bytes.to_string(),
                format!("{:.1}", o.recover_ms),
                o.committed.to_string(),
                o.snapshot_pages.to_string(),
            ]);
            results.push(o);
        }
    }
    r.done();

    let growth = |mode: &str| -> f64 {
        let times: Vec<f64> = results
            .iter()
            .filter(|o| o.mode == mode)
            .map(|o| o.recover_ms)
            .collect();
        times.last().unwrap() / times.first().unwrap().max(1e-6)
    };
    let (g_base, g_snap) = (growth("wal-replay"), growth("snapshot"));
    println!(
        "   recovery growth across {}x sweep: wal-replay {:.1}x, snapshot {:.1}x",
        scales.last().unwrap(),
        g_base,
        g_snap
    );

    let rows = results.iter().map(|o| {
        json::object([
            ("mode", Json::from(o.mode)),
            ("scale", o.scale.into()),
            ("keys", o.keys.into()),
            ("wal_bytes", o.wal_bytes.into()),
            ("recover_ms", json::fixed(o.recover_ms, 3)),
            ("tail_commits", o.committed.into()),
            ("records_redone", o.redone.into()),
            ("snapshot_generation", o.snapshot_generation.into()),
            ("snapshot_pages", o.snapshot_pages.into()),
        ])
    });
    let doc = json::object([
        ("results", json::array(rows)),
        (
            "growth_across_sweep",
            json::object([
                ("wal_replay", json::fixed(g_base, 2)),
                ("snapshot", json::fixed(g_snap, 2)),
            ]),
        ),
    ]);
    write_bench_json("restart", &doc);
}
