//! The crash-schedule explorer: drives a YCSB-style workload against a
//! full [`Database`], crashes it at schedule points, replays recovery,
//! and checks the durability invariants against a shadow model.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{
    DeviceKind, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, FaultStats,
    PersistenceTracking, SsdBackendConfig, TimeScale, Trigger,
};
use spitfire_txn::{Database, DbConfig, TxnError};
use spitfire_wkld::{YcsbConfig, YcsbMix, YcsbOpStream};

const PAGE: usize = 1024;
const TABLE: u32 = 1;
const TUPLE: usize = 64;

/// When (relative to workload progress) the explorer pulls the plug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSchedule {
    /// Crash whenever the WAL's NVM device has issued `k` more sfence
    /// epochs than at the previous crash (ties crashes to durability
    /// boundaries, the most adversarial points).
    EveryKFences(u64),
    /// Crash every `n` completed operations.
    EveryNOps(u64),
    /// Crash at seeded-random operation counts (1..=64 ops apart).
    RandomOps,
    /// Sabotage every `m`th checkpoint: a one-shot fatal fault kills
    /// either its home flush (a main-SSD write or sync) or the generation's
    /// block stream, then the explorer crashes. Recovery must fall back to
    /// the last *installed* generation plus the (untruncated) WAL tail,
    /// over whatever homes the flush had rewritten and NVM copies it had
    /// dropped.
    MidCheckpoint(u64),
    /// Crash whenever the buffer manager's migration counters (completed
    /// paths plus shadow-commit aborts) have advanced by `k` since the
    /// previous crash — the plug-pull lands right on the heels of
    /// migration activity, the most adversarial points for the
    /// shadow-copy protocol's commit/abort windows.
    EveryKMigrations(u64),
    /// Torn-write sabotage on the SSD tier (forces the real-file
    /// `FileSsdDevice` backend): page writes tear at `MEDIA_BLOCK`
    /// granularity while every SSD `sync` fails, so a torn image can land
    /// on the device but can never be made durable — the buffer manager
    /// must keep the upper-tier copy dirty and authoritative, and the
    /// crash rollback discards the torn bytes. Crashes land at
    /// seeded-random op counts like [`CrashSchedule::RandomOps`].
    TornSsdWrites,
    /// Never crash mid-run (one final crash still happens at the end).
    None,
}

impl CrashSchedule {
    /// Parse a CLI spelling: `every-K-fences`, `every-N-ops`, `at-op-N`
    /// (alias for `every-N-ops`), `every-K-migrations`,
    /// `mid-checkpoint-M`, `torn-ssd-writes`, `random`, or `none`.
    pub fn parse(s: &str) -> Option<CrashSchedule> {
        match s {
            "random" => return Some(CrashSchedule::RandomOps),
            "torn-ssd-writes" => return Some(CrashSchedule::TornSsdWrites),
            "none" => return Some(CrashSchedule::None),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("every-") {
            if let Some(k) = rest.strip_suffix("-fences") {
                return k.parse().ok().map(CrashSchedule::EveryKFences);
            }
            if let Some(n) = rest.strip_suffix("-ops") {
                return n.parse().ok().map(CrashSchedule::EveryNOps);
            }
            if let Some(k) = rest.strip_suffix("-migrations") {
                return k.parse().ok().map(CrashSchedule::EveryKMigrations);
            }
        }
        if let Some(n) = s.strip_prefix("at-op-") {
            return n.parse().ok().map(CrashSchedule::EveryNOps);
        }
        if let Some(m) = s.strip_prefix("mid-checkpoint-") {
            return m.parse().ok().map(CrashSchedule::MidCheckpoint);
        }
        None
    }

    /// Stable label for logs and CI output.
    pub fn label(&self) -> String {
        match self {
            CrashSchedule::EveryKFences(k) => format!("every-{k}-fences"),
            CrashSchedule::EveryNOps(n) => format!("every-{n}-ops"),
            CrashSchedule::RandomOps => "random".to_string(),
            CrashSchedule::MidCheckpoint(m) => format!("mid-checkpoint-{m}"),
            CrashSchedule::EveryKMigrations(k) => format!("every-{k}-migrations"),
            CrashSchedule::TornSsdWrites => "torn-ssd-writes".to_string(),
            CrashSchedule::None => "none".to_string(),
        }
    }
}

/// One exploration run: workload shape, crash schedule, fault plan.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the operation stream and random crash points.
    pub seed: u64,
    /// When to crash.
    pub schedule: CrashSchedule,
    /// Number of transactions to attempt.
    pub txns: u64,
    /// Key-space size (small on purpose: maximises version-chain churn
    /// and conflict coverage per transaction).
    pub keys: u64,
    /// Checkpoint after every this many transactions (None: never).
    pub checkpoint_every: Option<u64>,
    /// Fault plan installed on every device (None: fault-free).
    pub plan: Option<FaultPlan>,
    /// Whether a corrupt WAL tail is a violation. Keep `true` unless the
    /// plan injects torn writes (which legitimately corrupt the tail —
    /// the invariant then is that the checksum *detects* it, which a scan
    /// of the whole retained log, `read_from(wal.base())`, reports rather
    /// than mis-replaying).
    pub expect_clean_log: bool,
    /// Back the SSD tier with a real file ([`SsdBackendConfig::File`],
    /// auto-removed temp file) instead of the in-memory emulation, so the
    /// whole invariant suite runs against genuine block-device I/O.
    /// [`CrashSchedule::TornSsdWrites`] forces this on.
    pub file_ssd: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            schedule: CrashSchedule::None,
            txns: 200,
            keys: 16,
            checkpoint_every: Some(64),
            plan: None,
            expect_clean_log: true,
            file_ssd: false,
        }
    }
}

/// What one exploration run observed. Two runs with the same
/// [`ChaosConfig`] must produce equal verdicts — that equality is itself
/// one of the tested invariants (determinism).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Verdict {
    /// Operations attempted (reads + writes, including failed ones).
    pub ops_run: u64,
    /// Transactions attempted.
    pub txns_run: u64,
    /// Transactions that committed.
    pub commits: u64,
    /// Transactions aborted (voluntarily or on conflict).
    pub aborts: u64,
    /// Crash/recover cycles executed (includes the final one).
    pub crashes: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Operations that failed with a non-logic I/O error.
    pub io_failures: u64,
    /// Transient device errors absorbed by retry (buffer manager only).
    pub io_retries: u64,
    /// Fault-injector counters at the end of the run.
    pub faults: FaultStats,
    /// Invariant violations. Empty means the run passed.
    pub violations: Vec<String>,
}

fn database(chaos: &ChaosConfig) -> Database {
    let file_ssd = chaos.file_ssd || matches!(chaos.schedule, CrashSchedule::TornSsdWrites);
    let ssd_backend = if file_ssd {
        SsdBackendConfig::File { path: None }
    } else {
        SsdBackendConfig::Emulated
    };
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(16 * PAGE)
        .nvm_capacity(128 * (PAGE + 64))
        .policy(MigrationPolicy::lazy())
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .ssd_backend(ssd_backend)
        .build()
        .expect("static config");
    let db = Database::create(
        Arc::new(BufferManager::new(config).expect("fresh buffer manager")),
        DbConfig::default(),
    )
    .expect("create database");
    db.create_table(TABLE, TUPLE).expect("create table");
    // Every recovery in a chaos run takes the one restart path: explicit
    // checkpoints write snapshot generations, and crash_and_verify's
    // recoveries load the newest and replay the log tail past its fence
    // (the whole log, table creation included, before the first
    // generation exists).
    db
}

/// Crash, recover, and check every invariant. Appends violations to `v`.
fn crash_and_verify(
    db: &Database,
    model: &HashMap<u64, u8>,
    uncertain: &HashSet<u64>,
    keys: u64,
    v: &mut Verdict,
    expect_clean_log: bool,
) {
    db.simulate_crash();

    // Invariant: the log replays as a clean prefix. (Checked on the
    // post-crash image, i.e. exactly what recovery will see.)
    match db.wal().read_from(db.wal().base()) {
        Ok(report) => {
            if report.corrupt && expect_clean_log {
                v.violations.push(format!(
                    "WAL tail corrupt without torn-write faults: {report:?}"
                ));
            }
        }
        Err(e) => v.violations.push(format!("WAL scan failed: {e}")),
    }

    if let Err(e) = db.recover() {
        v.violations.push(format!("recovery failed: {e}"));
        return;
    }

    // Invariant: the snapshot store's allocator agrees with what the
    // surviving generations reference (nothing free that is referenced,
    // nothing referenced that is missing, nothing leaked).
    if let Err(e) = db.snapshots().check() {
        v.violations
            .push(format!("snapshot store after recovery: {e}"));
    }

    // Invariant: tier bookkeeping is consistent after the mapping-table
    // rebuild. Checked before the verification reads below repopulate
    // DRAM and would mask an inconsistency.
    let bm = db.buffer_manager();
    let (dram_pages, nvm_pages) = bm.resident_pages();
    let (dram_frames, nvm_frames) = bm.occupied_frames();
    if dram_pages != dram_frames || nvm_pages != nvm_frames {
        v.violations.push(format!(
            "tier occupancy mismatch after recovery: \
             mapping says {dram_pages} DRAM / {nvm_pages} NVM pages, \
             pools hold {dram_frames} / {nvm_frames} frames"
        ));
    }

    // Invariant: exactly the committed set survives. Keys whose commit
    // outcome is ambiguous (commit returned an I/O error — the commit
    // record may or may not have reached the log) are skipped.
    let txn = db.begin();
    for key in 0..keys {
        if uncertain.contains(&key) {
            continue;
        }
        match (db.read(&txn, TABLE, key), model.get(&key)) {
            (Ok(got), Some(&byte)) => {
                if !(got[0] == byte && got.iter().all(|&b| b == byte)) {
                    v.violations.push(format!(
                        "key {key}: recovered {} but committed value was {byte}",
                        got[0]
                    ));
                }
            }
            (Ok(got), None) => v.violations.push(format!(
                "key {key}: resurrected with {} but was never committed",
                got[0]
            )),
            (Err(TxnError::NotFound), None) => {}
            (Err(TxnError::NotFound), Some(&byte)) => v
                .violations
                .push(format!("key {key}: committed value {byte} lost")),
            (Err(e), _) => v.violations.push(format!("key {key}: read failed: {e}")),
        }
    }
    let mut txn = txn;
    let _ = db.abort(&mut txn);
}

/// Run one exploration and return its [`Verdict`].
///
/// Fully deterministic: the same `config` always yields the same verdict
/// (single-threaded; every random draw comes from seeded generators).
pub fn run(config: &ChaosConfig) -> Verdict {
    let mut v = Verdict::default();
    let db = database(config);
    let plan = match config.schedule {
        CrashSchedule::TornSsdWrites => {
            // Tear SSD page writes (silently persisting only a
            // MEDIA_BLOCK prefix) while failing every SSD sync. A torn
            // image may sit on the device, but without a successful sync
            // the buffer manager never marks the page clean, so the
            // upper-tier copy stays dirty and authoritative and the
            // crash rollback discards the torn bytes — committed data
            // must survive purely from NVM + WAL + snapshots.
            let base = config
                .plan
                .clone()
                .unwrap_or_else(|| FaultPlan::new(config.seed));
            Some(
                base.rule(
                    FaultRule::any(Trigger::Probability(0.25), FaultKind::TornWrite)
                        .on_device(DeviceKind::Ssd)
                        .on_op(FaultOp::Write),
                )
                .rule(
                    FaultRule::any(Trigger::Always, FaultKind::Fatal)
                        .on_device(DeviceKind::Ssd)
                        .on_op(FaultOp::Sync),
                ),
            )
        }
        _ => config.plan.clone(),
    };
    let injector = plan.map(|plan| Arc::new(FaultInjector::new(plan)));
    db.set_fault_injector(injector.clone());

    // Background maintenance in deterministic (tick) mode: cycles run
    // inline on this thread between transactions, so pre-eviction and
    // batched write-back participate in every crash schedule without
    // free-running threads perturbing the seeded fault/policy draws.
    let maintenance = db.buffer_manager().maintenance();

    let stream = YcsbOpStream::new(&YcsbConfig {
        records: config.keys,
        theta: 0.5,
        mix: YcsbMix::WriteHeavy,
    });
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Shadow state. `model` holds committed values only; `uncertain`
    // holds keys whose last commit attempt ended in an I/O error (the
    // commit record may or may not be durable — either outcome is
    // legal, so verification skips them until a later clean commit).
    let mut model: HashMap<u64, u8> = HashMap::new();
    let mut uncertain: HashSet<u64> = HashSet::new();

    let mut ops: u64 = 0;
    let fences = |db: &Database| db.wal().nvm_stats().snapshot().fences;
    // Total migration activity: every completed path plus every shadow
    // commit that aborted. Monotone across crash/recover cycles.
    let migrations = |db: &Database| {
        let m = db.buffer_manager().metrics();
        m.migrations.iter().sum::<u64>() + m.migrations_aborted
    };
    let mut next_fence_crash = match config.schedule {
        CrashSchedule::EveryKFences(k) => fences(&db) + k.max(1),
        _ => u64::MAX,
    };
    let mut next_op_crash = match config.schedule {
        CrashSchedule::EveryNOps(n) => n.max(1),
        CrashSchedule::RandomOps | CrashSchedule::TornSsdWrites => 1 + rng.gen::<u64>() % 64,
        _ => u64::MAX,
    };
    let mut next_mig_crash = match config.schedule {
        CrashSchedule::EveryKMigrations(k) => migrations(&db) + k.max(1),
        _ => u64::MAX,
    };

    let mut ckpt_attempts: u64 = 0;

    'txns: for t in 0..config.txns {
        v.txns_run += 1;
        // One deterministic maintenance cycle per transaction boundary.
        maintenance.tick();
        if let Some(every) = config.checkpoint_every {
            if t > 0 && t % every == 0 {
                ckpt_attempts += 1;
                let sabotage = match config.schedule {
                    CrashSchedule::MidCheckpoint(m) if ckpt_attempts % m.max(1) == 0 => {
                        Some(config.seed ^ (ckpt_attempts / m.max(1)))
                    }
                    _ => None,
                };
                if let Some(turn) = sabotage {
                    // Kill this checkpoint partway through with a one-shot
                    // fatal fault, then pull the plug. Half the turns fail
                    // the k-th snapshot-store write (k = 1 or 2: even the
                    // smallest generation writes an index run and a
                    // manifest), leaving a partial, never-installed
                    // generation. The other half fail the k-th main-SSD
                    // write or sync (k = 1..=3) of the home flush, leaving
                    // some homes rewritten and their NVM copies dropped;
                    // should the flush be too short to reach k, the first
                    // store write fails instead. Recovery must ignore the partial work and
                    // restart from the last installed generation plus the
                    // WAL tail, which the failed checkpoint must not have
                    // truncated.
                    let once = |rule: FaultRule| {
                        let plan =
                            FaultPlan::new(config.seed.wrapping_add(ckpt_attempts)).rule(rule);
                        Some(Arc::new(FaultInjector::new(plan)))
                    };
                    let fatal = |kth| FaultRule::any(Trigger::NthOp(kth), FaultKind::Fatal);
                    let (k, home) = (turn / 2, turn % 2 == 1);
                    if home {
                        let rule = fatal(1 + k % 3)
                            .on_device(DeviceKind::Ssd)
                            .on_op(FaultOp::Write)
                            .on_op(FaultOp::Sync);
                        db.buffer_manager().admin().set_fault_injector(once(rule));
                    }
                    let store_kth = if home { 1 } else { 1 + k % 2 };
                    db.snapshots()
                        .set_fault_injector(once(fatal(store_kth).on_op(FaultOp::Write)));
                    if db.checkpoint().is_ok() {
                        v.violations
                            .push("sabotaged checkpoint unexpectedly succeeded".to_string());
                    }
                    // Restore the run-wide background-noise injector (or
                    // none) before recovery reads the devices.
                    db.buffer_manager()
                        .admin()
                        .set_fault_injector(injector.clone());
                    db.snapshots().set_fault_injector(injector.clone());
                    crash_and_verify(
                        &db,
                        &model,
                        &uncertain,
                        config.keys,
                        &mut v,
                        config.expect_clean_log,
                    );
                    v.crashes += 1;
                } else {
                    // Quiescent here: no transaction is in flight. A
                    // failed checkpoint is safe — the error surfaces
                    // before the generation is installed and before the
                    // log is truncated, so no records are dropped.
                    match db.checkpoint() {
                        Ok(_) => v.checkpoints += 1,
                        Err(_) => v.io_failures += 1,
                    }
                }
            }
        }

        let mut txn = db.begin();
        let mut pending: HashMap<u64, u8> = HashMap::new();
        let mut failed = false;
        let n_ops = 1 + rng.gen::<u64>() % 3;
        for _ in 0..n_ops {
            let (key, is_update) = stream.next_op(&mut rng);
            ops += 1;
            if is_update {
                let byte = rng.gen::<u8>();
                let payload = vec![byte; TUPLE];
                let result = match db.update(&mut txn, TABLE, key, &payload) {
                    Err(TxnError::NotFound) => db.insert(&mut txn, TABLE, key, &payload),
                    other => other,
                };
                match result {
                    Ok(()) => {
                        pending.insert(key, byte);
                    }
                    Err(TxnError::Conflict | TxnError::Duplicate) => failed = true,
                    Err(_) => {
                        v.io_failures += 1;
                        failed = true;
                    }
                }
            } else {
                let expect = pending.get(&key).or_else(|| model.get(&key)).copied();
                match (db.read(&txn, TABLE, key), expect) {
                    (Ok(got), Some(byte)) => {
                        // Own writes and committed state must both be
                        // visible mid-run, not just after recovery.
                        if !uncertain.contains(&key) && got[0] != byte {
                            v.violations.push(format!(
                                "live read of key {key} saw {} expected {byte}",
                                got[0]
                            ));
                        }
                    }
                    (Ok(got), None) => {
                        if !uncertain.contains(&key) {
                            v.violations
                                .push(format!("live read resurrected key {key} = {}", got[0]));
                        }
                    }
                    (Err(TxnError::NotFound), Some(byte)) => {
                        if !uncertain.contains(&key) {
                            v.violations
                                .push(format!("live read lost key {key} = {byte}"));
                        }
                    }
                    (Err(TxnError::NotFound), None) => {}
                    (Err(_), _) => {
                        v.io_failures += 1;
                        failed = true;
                    }
                }
            }

            // Crash points are checked between operations, so an
            // interrupted transaction becomes a recovery loser and its
            // writes must NOT survive — the resurrection check above
            // stays strict for them.
            let crash_now = ops >= next_op_crash
                || fences(&db) >= next_fence_crash
                || migrations(&db) >= next_mig_crash;
            if crash_now {
                match config.schedule {
                    CrashSchedule::EveryNOps(n) => {
                        let n = n.max(1);
                        while next_op_crash <= ops {
                            next_op_crash += n;
                        }
                    }
                    CrashSchedule::RandomOps | CrashSchedule::TornSsdWrites => {
                        next_op_crash = ops + 1 + rng.gen::<u64>() % 64;
                    }
                    CrashSchedule::EveryKFences(k) => {
                        let k = k.max(1);
                        let now = fences(&db);
                        while next_fence_crash <= now {
                            next_fence_crash += k;
                        }
                    }
                    CrashSchedule::EveryKMigrations(k) => {
                        let k = k.max(1);
                        let now = migrations(&db);
                        while next_mig_crash <= now {
                            next_mig_crash += k;
                        }
                    }
                    CrashSchedule::MidCheckpoint(_) | CrashSchedule::None => {}
                }
                crash_and_verify(
                    &db,
                    &model,
                    &uncertain,
                    config.keys,
                    &mut v,
                    config.expect_clean_log,
                );
                v.crashes += 1;
                continue 'txns;
            }
        }

        if failed {
            let _ = db.abort(&mut txn);
            v.aborts += 1;
        } else if rng.gen::<f64>() < 0.1 {
            // Voluntary abort: its writes must never resurrect.
            let _ = db.abort(&mut txn);
            v.aborts += 1;
        } else {
            match db.commit(&mut txn) {
                Ok(()) => {
                    for (key, byte) in pending {
                        model.insert(key, byte);
                        uncertain.remove(&key);
                    }
                    v.commits += 1;
                }
                Err(TxnError::Conflict) => v.aborts += 1,
                Err(_) => {
                    // The commit record's durability is unknown; flag
                    // every touched key as unverifiable until a later
                    // commit settles it.
                    v.io_failures += 1;
                    for key in pending.keys() {
                        uncertain.insert(*key);
                    }
                }
            }
        }
    }

    // Final crash: every run ends with at least one recovery check.
    crash_and_verify(
        &db,
        &model,
        &uncertain,
        config.keys,
        &mut v,
        config.expect_clean_log,
    );
    v.crashes += 1;

    v.ops_run = ops;
    v.io_retries = db.buffer_manager().metrics().io_retries;
    if let Some(inj) = &injector {
        v.faults = inj.stats();
    }
    v
}
