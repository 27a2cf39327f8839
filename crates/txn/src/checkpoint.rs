//! Incremental crash-consistent checkpoints (instant restart).
//!
//! Every [`Database::checkpoint`] is a *fuzzy incremental checkpoint*
//! written through the database's [`SnapshotEngine`] (attached by
//! [`Database::enable_snapshots`], or with the default configuration by
//! the first checkpoint):
//!
//! 1. **Fence.** Under the database's fence gate (new transactions
//!    blocked) the checkpointer waits — bounded — for in-flight
//!    transactions to drain, captures a [`WalFence`] (every appended
//!    record durable in the log file), and drains the buffer manager's
//!    dirty-epoch set. A non-quiescent database yields the *retryable*
//!    [`TxnError::CheckpointContended`] instead of silently corrupting
//!    state.
//! 2. **Fuzzy copy.** The gate drops and transactions resume while the
//!    generation's payload is produced. An *incremental* generation
//!    copies the drained dirty-epoch pages under short read guards into
//!    the snapshot store, one raw device page each, and inherits the
//!    directory entry of every page it did not copy from the generation
//!    before it — so its own directory names the newest image of every
//!    page dirtied since the last full generation, and it never needs an
//!    ancestor. A *full* generation is **SSD-backed**: it flushes both
//!    buffer tiers and syncs the main SSD instead of copying O(database)
//!    images, so its directory is empty, the base lives where the data
//!    already belongs, and recovery never re-installs it. Either way the
//!    copied/flushed state may contain *post-fence* effects; that is
//!    fine because recovery replays the WAL tail from the fence, and
//!    redo rewrites whole version slots idempotently.
//! 3. **Install + truncate.** The generation's directory and manifest
//!    (fence LSN, catalog root, oracle state, per-table watermarks, the
//!    list of its metadata blocks) are written, CRC-checked, and
//!    atomically installed; the store keeps this generation and the one
//!    before it and reuses every block neither references. The WAL is
//!    then truncated to the *previous* generation's fence — one
//!    generation of slack, so a CRC-mismatch fallback one generation back
//!    still finds its tail — and the truncated file pages go back to the
//!    log device.
//!
//! Recovery ([`Database::recover`]) loads the newest generation that
//! validates, installs each page its directory names — once, at its
//! newest image — over the SSD-backed base, reopens tables from the
//! manifest (no allocator scans), bulk-loads indexes from the dumped
//! runs, and replays only the WAL tail past the fence — recovery work is
//! bounded by the pages dirtied since the last full generation plus one
//! checkpoint interval of log, not by database size or history.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spitfire_core::{PageId, MAINTENANCE_BATCH};
use spitfire_index::BTree;
use spitfire_snapshot::{SnapshotStore, TableMeta};

use crate::db::{Database, Relation};
use crate::error::TxnError;
use crate::table::{Table, NO_RID};
use crate::wal::{RecordKind, WalFence};
use crate::{RecoveryStats, Result};

/// Tuning knobs for the snapshot engine.
#[derive(Debug, Clone)]
pub struct SnapshotConfig {
    /// Every `full_every`-th checkpoint writes a full (SSD-backed)
    /// generation; the rest are incremental over the dirty-epoch set.
    pub full_every: u64,
    /// How long a checkpoint waits for in-flight transactions to drain
    /// before giving up with [`TxnError::CheckpointContended`].
    pub quiesce_wait: Duration,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            full_every: 8,
            quiesce_wait: Duration::from_millis(250),
        }
    }
}

/// Counters from one [`Database::checkpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Generation installed.
    pub generation: u64,
    /// Page images captured (full generation: pages flushed to the SSD).
    pub pages: usize,
    /// Index entries dumped.
    pub index_entries: usize,
    /// Whether this generation is a full (SSD-backed) one.
    pub full: bool,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
}

/// The checkpointer state attached to a [`Database`].
pub struct SnapshotEngine {
    store: SnapshotStore,
    cfg: SnapshotConfig,
    /// Checkpoints completed by this engine (drives the full/incremental
    /// cadence).
    checkpoints: AtomicU64,
    /// Fence of the newest installed generation; the *next* install
    /// truncates the WAL here. `None` right after recovery (no truncation
    /// until a new generation exists).
    last_fence: Mutex<Option<WalFence>>,
    /// Force the next generation to be a full one (set by recovery: the
    /// dirty-epoch set does not span the crash).
    force_full: AtomicBool,
    last_micros: AtomicU64,
    last_pages: AtomicU64,
}

impl SnapshotEngine {
    /// The snapshot store (test and chaos access: fault injection,
    /// corruption, crash simulation).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Newest installed generation number (0 = none).
    pub fn generation(&self) -> u64 {
        self.store.latest().map_or(0, |e| e.generation)
    }

    /// Wall-clock microseconds of the last completed checkpoint.
    pub fn last_checkpoint_micros(&self) -> u64 {
        // relaxed: advisory gauge.
        self.last_micros.load(Ordering::Relaxed)
    }

    /// Page images captured by the last completed checkpoint.
    pub fn last_checkpoint_pages(&self) -> u64 {
        // relaxed: advisory gauge.
        self.last_pages.load(Ordering::Relaxed)
    }

    /// Checkpoints completed by this engine instance.
    pub fn checkpoints(&self) -> u64 {
        // relaxed: advisory counter.
        self.checkpoints.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SnapshotEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotEngine")
            .field("generation", &self.generation())
            .field("checkpoints", &self.checkpoints())
            .finish_non_exhaustive()
    }
}

impl Database {
    /// Attach a snapshot engine: checkpoints become incremental snapshot
    /// generations and recovery gains the instant-restart path. The store
    /// lives on its own (simulated) SSD device sized to the database page,
    /// built with the buffer manager's configured time scale and
    /// persistence tracking and no fault injector — later
    /// [`Database::set_time_scale`] / [`Database::set_fault_injector`]
    /// calls reach it, earlier ones do not.
    pub fn enable_snapshots(&self, cfg: SnapshotConfig) -> Arc<SnapshotEngine> {
        let store = SnapshotStore::new(
            self.bm.page_size(),
            self.bm.config().time_scale,
            self.bm.config().persistence,
        );
        let engine = Arc::new(SnapshotEngine {
            store,
            cfg,
            checkpoints: AtomicU64::new(0),
            last_fence: Mutex::new(None),
            force_full: AtomicBool::new(false),
            last_micros: AtomicU64::new(0),
            last_pages: AtomicU64::new(0),
        });
        *self.snapshots.write() = Some(Arc::clone(&engine));
        engine
    }

    /// The attached snapshot engine, if any.
    pub fn snapshot_engine(&self) -> Option<Arc<SnapshotEngine>> {
        self.snapshots.read().clone()
    }

    /// Install (or clear) a fault injector on the snapshot store only
    /// (chaos: crash-mid-checkpoint schedules fault snapshot writes
    /// without touching the data or log devices).
    pub fn set_snapshot_fault_injector(
        &self,
        injector: Option<Arc<spitfire_device::FaultInjector>>,
    ) {
        if let Some(engine) = self.snapshot_engine() {
            engine.store.set_fault_injector(injector);
        }
    }

    /// Checkpoint the database: write and install one snapshot generation
    /// (see the module docs). A database that never called
    /// [`Database::enable_snapshots`] attaches an engine with
    /// [`SnapshotConfig::default`] first.
    ///
    /// Requires a quiescent database: new transactions are blocked at the
    /// fence gate and, if in-flight transactions do not drain within the
    /// configured wait, the call fails with the *retryable*
    /// [`TxnError::CheckpointContended`] — it never runs concurrently
    /// with live transactions' durability window.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        let _serial = self.ckpt_serial.lock();
        let engine = self
            .snapshot_engine()
            .unwrap_or_else(|| self.enable_snapshots(SnapshotConfig::default()));
        let started = Instant::now();
        let obs_t = spitfire_obs::op_start();
        let gate = self.fence_gate.write();
        let deadline = Instant::now() + engine.cfg.quiesce_wait;
        while !self.active.lock().is_empty() {
            if Instant::now() >= deadline {
                drop(gate);
                return Err(TxnError::CheckpointContended);
            }
            std::thread::yield_now();
        }
        // Capture everything fence-consistent while quiescent.
        let fence = self.wal.fence()?;
        // relaxed: cadence counter; serialized by ckpt_serial.
        let n = engine.checkpoints.load(Ordering::Relaxed);
        let full = n.is_multiple_of(engine.cfg.full_every.max(1))
            || engine.force_full.swap(false, Ordering::AcqRel);
        let dirty = self.bm.drain_dirty_epoch();
        let oracle_ts = self.oracle.load(Ordering::Acquire);
        let next_txn_id = self.txn_ids.load(Ordering::Acquire);
        let next_page_id = self.bm.page_count();
        let metas: Vec<TableMeta> = self
            .relations()
            .iter()
            .map(|rel| TableMeta {
                id: rel.table.id,
                tuple_size: rel.table.tuple_size as u32,
                catalog_head: rel.table.catalog_head().0,
                allocated_slots: rel.table.allocated_slots(),
            })
            .collect();
        drop(gate); // transactions resume; the copy below is fuzzy

        let result = self.write_generation(
            &engine,
            fence,
            full,
            &dirty,
            (oracle_ts, next_txn_id, next_page_id),
            metas,
        );
        match result {
            Ok((generation, pages, index_entries, full)) => {
                let micros = started.elapsed().as_micros() as u64;
                // relaxed: advisory gauges/counters.
                engine.checkpoints.fetch_add(1, Ordering::Relaxed);
                engine.last_micros.store(micros, Ordering::Relaxed);
                engine.last_pages.store(pages as u64, Ordering::Relaxed);
                spitfire_obs::record_op(
                    spitfire_obs::Op::Checkpoint,
                    obs_t,
                    generation,
                    "snapshot",
                );
                Ok(CheckpointStats {
                    generation,
                    pages,
                    index_entries,
                    full,
                    micros,
                })
            }
            Err(e) => {
                // The generation was never installed; put the drained
                // pids back so the next attempt still covers them.
                self.bm.merge_dirty_epoch(&dirty);
                Err(e)
            }
        }
    }

    /// Stream one snapshot generation: page images (the drained dirty set
    /// for an incremental one; a full generation is *SSD-backed* instead),
    /// full index dumps, directory and manifest, install, then WAL
    /// truncation to the previous fence.
    ///
    /// A full generation copies no page images into the store. It flushes
    /// both buffer tiers — DRAM dirty pages reconcile into their NVM
    /// copies or the SSD, NVM dirty pages write back to the SSD — and
    /// syncs the SSD *before* the generation installs, so the durable
    /// base state lives where it already belongs: the main SSD plus the
    /// persistent NVM buffer. Recovery therefore installs only the pages
    /// dirtied since then and stays O(checkpoint interval), not
    /// O(database). Crash-consistency of the in-place flush: home-slot
    /// overwrites only add effects newer than every fence the WAL still
    /// covers, and tail redo rewrites whole version slots idempotently,
    /// so a half-flushed, never-installed full generation cannot corrupt
    /// the fallback generation.
    fn write_generation(
        &self,
        engine: &SnapshotEngine,
        fence: WalFence,
        full: bool,
        dirty: &[PageId],
        (oracle_ts, next_txn_id, next_page_id): (u64, u64, u64),
        metas: Vec<TableMeta>,
    ) -> Result<(u64, usize, usize, bool)> {
        let mut writer = engine.store.begin(full, fence.lsn);
        let full = writer.is_full(); // the store forces full when empty
        let pages = if full {
            let mut flushed = self.bm.flush_all_dirty()?;
            loop {
                let n = self.bm.flush_nvm_dirty(MAINTENANCE_BATCH)?;
                if n == 0 {
                    break;
                }
                flushed += n;
            }
            self.bm.sync_ssd()?;
            flushed
        } else {
            let mut pids: Vec<u64> = dirty.iter().map(|p| p.0).collect();
            pids.sort_unstable();
            let mut buf = vec![0u8; self.bm.page_size()];
            for &pid in &pids {
                {
                    let guard = self.bm.fetch_read(PageId(pid))?;
                    guard.read(0, &mut buf)?;
                }
                writer.page_image(pid, &buf)?;
            }
            pids.len()
        };
        let mut index_entries = 0usize;
        for meta in &metas {
            let index = &self.relation(meta.id)?.index;
            let mut start = 0u64;
            loop {
                let chunk = index.scan_from(start, 1024)?;
                let Some(&(last, _)) = chunk.last() else {
                    break;
                };
                writer.index_entries(meta.id, &chunk)?;
                index_entries += chunk.len();
                if last == u64::MAX {
                    break;
                }
                start = last + 1;
            }
        }
        let info = writer.finish(
            self.root_catalog.0,
            next_page_id,
            oracle_ts,
            next_txn_id,
            metas,
        )?;
        // Truncate to the *previous* generation's fence: the newest
        // generation's own tail must stay replayable, and one generation
        // of extra slack keeps the CRC-mismatch fallback recoverable.
        let prev = engine.last_fence.lock().replace(fence);
        if let Some(prev) = prev {
            self.wal.truncate_to(prev)?;
        }
        Ok((info.generation, pages, index_entries, full))
    }

    /// Instant-restart recovery: load the newest valid snapshot generation
    /// and replay only the WAL tail past its fence. Returns `Ok(None)`
    /// when there is nothing to restore (no generation ever installed, or
    /// both retained ones corrupt) — the caller falls back to full-history
    /// recovery.
    pub(crate) fn recover_from_snapshot(
        &self,
        engine: &SnapshotEngine,
        stats: &mut RecoveryStats,
    ) -> Result<Option<()>> {
        engine.store.reload()?;
        let Some(gen) = engine.store.newest_valid() else {
            return Ok(None);
        };

        // Install each page the directory names, once.
        let mut page_err: Option<spitfire_core::BufferError> = None;
        let mut pages_installed = 0usize;
        let mut index_dumps: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        let manifest = engine.store.load(
            gen,
            |pid, image| {
                if page_err.is_none() {
                    match self.bm.install_page_image(PageId(pid), image) {
                        Ok(()) => pages_installed += 1,
                        Err(e) => page_err = Some(e),
                    }
                }
            },
            |table, entries| {
                index_dumps
                    .entry(table)
                    .or_default()
                    .extend_from_slice(entries);
            },
        )?;
        if let Some(e) = page_err {
            return Err(e.into());
        }
        stats.snapshot_generation = gen;
        stats.snapshot_pages = pages_installed;
        self.bm.sync_ssd()?;
        self.bm.admin().set_next_page_id(manifest.next_page_id);

        // Reopen tables from the manifest: catalog chains only, no
        // allocator scans (the manifest carries the slot watermarks).
        let mut tables = BTreeMap::new();
        for meta in &manifest.tables {
            let table = Table::open_with_slots(
                Arc::clone(&self.bm),
                meta.id,
                meta.tuple_size as usize,
                PageId(meta.catalog_head),
                meta.allocated_slots,
            )?;
            tables.insert(meta.id, table);
        }

        // Replay only the tail past the fence.
        let report = self.wal.read_all_checked()?;
        let tail: Vec<crate::wal::LogRecord> = report
            .records
            .into_iter()
            .zip(report.lsns)
            .filter(|&(_, lsn)| lsn >= manifest.fence_lsn)
            .map(|(r, _)| r)
            .collect();
        let outcome = self.replay_records(&tables, &tail, stats)?;

        // Rebuild indexes: bulk-load the dumped runs, then fix up the
        // keys the tail touched, in log order (a winner's newest record
        // points the key at its slot; a loser's points back at the
        // version it superseded, or removes a fresh insert).
        let mut catalog = HashMap::with_capacity(tables.len());
        for (id, table) in tables {
            let entries = index_dumps.remove(&id).unwrap_or_default();
            stats.index_entries += entries.len();
            let index = BTree::bulk_load(Arc::clone(&self.bm), &entries)?;
            catalog.insert(id, Arc::new(Relation { table, index }));
        }
        // BTreeMap, not HashMap: the application order below shapes
        // the rebuilt tree's split history, and recovery must be
        // deterministic (the chaos explorer's replay-equality
        // invariant depends on it).
        let mut fix: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        for r in &tail {
            match r.kind {
                RecordKind::Update | RecordKind::Insert => {
                    if outcome.commit_ts.contains_key(&r.txn) {
                        fix.insert((r.table, r.key), r.rid);
                    } else {
                        fix.insert((r.table, r.key), r.prev_rid);
                    }
                }
                _ => {}
            }
        }
        for ((table, key), rid) in fix {
            let Some(rel) = catalog.get(&table) else {
                continue;
            };
            if rid == NO_RID {
                rel.index.remove(key)?;
            } else {
                rel.index.insert(key, rid)?;
            }
        }
        *self.catalog.write() = catalog;

        self.oracle
            .fetch_max(manifest.oracle_ts.max(outcome.max_ts), Ordering::AcqRel);
        self.txn_ids
            .fetch_max(manifest.next_txn_id.max(outcome.max_txn), Ordering::AcqRel);

        // The dirty-epoch set does not span the crash; force the next
        // generation to re-base. No WAL truncation until it installs.
        engine.force_full.store(true, Ordering::Release);
        *engine.last_fence.lock() = None;
        Ok(Some(()))
    }
}
