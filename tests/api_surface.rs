//! Compile-time assertions over the stable re-export set of
//! `spitfire_core`.
//!
//! Every name referenced here is part of the crate's public API contract:
//! removing or renaming one breaks this test at compile time, forcing the
//! change to be deliberate. Runtime bodies only sanity-check trivial
//! invariants — the point of the test is that it *compiles*.

use std::sync::Arc;

// The stable re-export set. A plain `use` of every name: if any of these
// stops resolving, the API surface changed.
use spitfire_core::{AccessIntent, PageId, Tier};
#[allow(unused_imports)]
use spitfire_core::{
    Admin, BufferError, BufferManager, BufferManagerConfig, BufferManagerConfigBuilder, CycleStats,
    Hierarchy, Maintenance, MaintenanceConfig, MetricsSnapshot, MigrationPath, MigrationPolicy,
    NvmAdmission, PageGuard, PolicyCell, PolicyConfig, ReadGuard, Result, WriteGuard,
};
use spitfire_device::TimeScale;

fn manager() -> Arc<BufferManager> {
    let config = BufferManagerConfig::builder()
        .page_size(1024)
        .dram_capacity(8 * 1024)
        .nvm_capacity(16 * (1024 + 64))
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    Arc::new(BufferManager::new(config).unwrap())
}

/// The lifecycle API: `admin()` mutators, the `Maintenance` handle, typed
/// fetches. Signatures are pinned by the explicit type ascriptions.
#[test]
fn lifecycle_api_signatures() {
    let bm = manager();

    let admin: Admin<'_> = bm.admin();
    admin.set_policy(MigrationPolicy::lazy());
    admin.set_time_scale(TimeScale::ZERO);
    admin.set_fault_injector(None);
    admin.set_next_page_id(1);

    let maintenance: Maintenance = bm.maintenance();
    assert!(!maintenance.is_running());
    let stats: CycleStats = maintenance.tick();
    assert_eq!(stats, CycleStats::default());
    maintenance.stop();

    let pid: PageId = bm.allocate_page().unwrap();
    {
        let guard: WriteGuard<'_> = bm.fetch_write(pid).unwrap();
        guard.write(0, b"api").unwrap();
        let _: Tier = guard.tier();
    }
    {
        let guard: ReadGuard<'_> = bm.fetch_read(pid).unwrap();
        let mut b = [0u8; 3];
        guard.read(0, &mut b).unwrap();
        assert_eq!(&b, b"api");
    }
    // The untyped fetch stays available for benches and generic drivers.
    let guard: PageGuard<'_> = bm.fetch(pid, AccessIntent::Read).unwrap();
    drop(guard);

    let snap: MetricsSnapshot = bm.metrics();
    assert!(snap.backpressure_fallbacks == 0);
    let _: (usize, usize) = bm.free_frames();
}

/// Error types are `#[non_exhaustive]` with a uniform `is_retryable()` at
/// every layer, and conversions compose device → buffer → txn.
#[test]
fn error_api_contract() {
    use spitfire_device::DeviceError;
    use spitfire_txn::TxnError;

    let dev = DeviceError::InjectedTransient { op: "write" };
    assert!(dev.is_retryable());
    let buf: BufferError = dev.into();
    assert!(buf.is_retryable());
    let txn: TxnError = buf.into();
    assert!(txn.is_retryable());
    assert!(TxnError::Conflict.is_retryable());

    let fatal: BufferError = DeviceError::InjectedFatal { op: "write" }.into();
    assert!(!fatal.is_retryable());
}

/// Config surface: what is left of the maintenance block — the workers'
/// wake-up period — and the batch size as the constant it became.
#[test]
fn maintenance_config_surface() {
    let m = MaintenanceConfig { interval_us: 100 };
    let config = BufferManagerConfig::builder()
        .page_size(1024)
        .dram_capacity(8 * 1024)
        .nvm_capacity(16 * (1024 + 64))
        .maintenance(m)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    assert_eq!(config.maintenance, m);
    assert_eq!(spitfire_core::MAINTENANCE_BATCH, 4);
    let _: Hierarchy = config.hierarchy();
}

/// Replacement-policy surface: one policy, the paper's CLOCK, run inline
/// by every pool. `PolicyConfig` has the one variant (the exhaustive match
/// stops compiling if another comes back), the policy menu and the trait
/// object it built stay deleted (pinned like the shims below), and the
/// per-tier builder setters still accept CLOCK.
#[test]
fn replacement_policy_api_surface() {
    match PolicyConfig::Clock {
        PolicyConfig::Clock => {}
    }

    struct Absent;
    trait MenuAbsent: Sized {
        const ALL: Absent = Absent;
        fn build(self, _: usize) -> Absent {
            Absent
        }
    }
    impl MenuAbsent for PolicyConfig {}
    let _: Absent = PolicyConfig::ALL;
    let _: Absent = PolicyConfig::Clock.build(8);

    let config = BufferManagerConfig::builder()
        .page_size(1024)
        .dram_capacity(8 * 1024)
        .nvm_capacity(16 * (1024 + 64))
        .dram_policy(PolicyConfig::Clock)
        .nvm_policy(PolicyConfig::Clock)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    let bm = BufferManager::new(config).unwrap();
    let pid = bm.allocate_page().unwrap();
    drop(bm.fetch_read(pid).unwrap());
}

/// The deprecated runtime-mutator shims on `BufferManager` stay removed.
/// An extension trait supplies same-named methods returning a private
/// marker type; inherent methods win method resolution, so if any shim
/// reappears on `BufferManager` the `Absent` ascriptions below stop
/// compiling (the real shims returned `()`).
#[test]
fn removed_shims_stay_removed() {
    struct Absent;
    trait ShimsAbsent {
        fn set_policy(&self, _: MigrationPolicy) -> Absent {
            Absent
        }
        fn set_time_scale(&self, _: TimeScale) -> Absent {
            Absent
        }
        fn set_fault_injector(&self, _: Option<Arc<spitfire_device::FaultInjector>>) -> Absent {
            Absent
        }
        fn set_next_page_id(&self, _: u64) -> Absent {
            Absent
        }
    }
    impl ShimsAbsent for BufferManager {}

    let bm = manager();
    let _: Absent = bm.set_policy(MigrationPolicy::lazy());
    let _: Absent = bm.set_time_scale(TimeScale::ZERO);
    let _: Absent = bm.set_fault_injector(None);
    let _: Absent = bm.set_next_page_id(1);
    // The supported path is the scoped admin handle.
    bm.admin().set_next_page_id(1);

    // Same trick for the retired `shadow_migrations(bool)` knob: tier
    // moves pick shadow vs exclusive from the page's state, and the
    // builder must not grow the option back.
    trait KnobAbsent: Sized {
        fn shadow_migrations(self, _: bool) -> Absent {
            Absent
        }
    }
    impl KnobAbsent for BufferManagerConfigBuilder {}
    let _: Absent = BufferManagerConfig::builder().shadow_migrations(false);

    // The maintenance watermarks, batch size and worker count are
    // constants: no builder method sets them, and the exhaustive pattern
    // stops compiling if `dram_low` / `dram_high` / `nvm_low` / `nvm_high`
    // / `batch` / `workers` (or any other field) comes back.
    trait MaintenanceKnobsAbsent: Sized {
        fn watermarks(self, _: f64, _: f64) -> Absent {
            Absent
        }
        fn maintenance_batch(self, _: usize) -> Absent {
            Absent
        }
    }
    impl MaintenanceKnobsAbsent for BufferManagerConfigBuilder {}
    let _: Absent = BufferManagerConfig::builder().watermarks(0.1, 0.2);
    let _: Absent = BufferManagerConfig::builder().maintenance_batch(8);
    let MaintenanceConfig { interval_us: _ } = MaintenanceConfig::default();

    // The hand bridges into obs are gone from both types: a manager or a
    // database is an `obs::Source` registered with `register_source`, and
    // names each metric once in its `report`.
    trait BridgesAbsent {
        fn register_obs_gauges(&self) -> Absent {
            Absent
        }
        fn fill_obs_report(&self, _: &mut spitfire_obs::Report) -> Absent {
            Absent
        }
    }
    impl BridgesAbsent for Arc<BufferManager> {}
    impl BridgesAbsent for Arc<spitfire_txn::Database> {}
    let bm = manager();
    let db = Arc::new(
        spitfire_txn::Database::create(Arc::clone(&bm), spitfire_txn::DbConfig::default()).unwrap(),
    );
    let mut report = spitfire_obs::Report::default();
    let _: Absent = bm.register_obs_gauges();
    let _: Absent = bm.fill_obs_report(&mut report);
    let _: Absent = db.register_obs_gauges();
    let _: Absent = db.fill_obs_report(&mut report);
    spitfire_obs::Source::report(&*bm, &mut report);
    spitfire_obs::Source::report(&*db, &mut report);
    assert!(report.counters.contains_key("dram_hits"));
    assert!(report.counters.contains_key("txn_commits"));

    // The SA tuner searches the migration policy only; its replacement
    // axis (which no host could apply to a live pool) stays deleted.
    trait AxisAbsent: Sized {
        fn with_replacement_axis(self, _: PolicyConfig) -> Absent {
            Absent
        }
    }
    impl AxisAbsent for spitfire_core::adaptive::AnnealingTuner {}
    let tuner = spitfire_core::adaptive::AnnealingTuner::new(
        MigrationPolicy::lazy(),
        spitfire_core::adaptive::AnnealingParams::default(),
        1,
    );
    let _: Absent = tuner.with_replacement_axis(PolicyConfig::Clock);

    // One durability switch, one log page size and one checkpoint path.
    // The destructurings and the match are exhaustive, so they stop
    // compiling if `DbConfig::log_tracking`, `DbConfig::log_page_size`
    // (the log file's page is the SSD's write unit) or
    // `DbConfig::lock_stripes` (a constant), the server's `pressure_poll`
    // (a constant), any other field, a manifest's list of run blocks (a
    // generation's blocks chain through their headers), or
    // `RecordKind::Checkpoint` (or any other kind) comes back; the
    // engine-less checkpoint's `Wal::truncate` is pinned like the shims.
    let spitfire_txn::DbConfig {
        log_buffer_bytes: _,
    } = spitfire_txn::DbConfig::default();
    let spitfire_txn::Manifest {
        generation: _,
        fence: _,
        next_page_id: _,
        oracle_ts: _,
        next_txn_id: _,
        tables: _,
    } = spitfire_txn::Manifest::default();
    let spitfire_server::ServerConfig {
        addr: _,
        workers: _,
        page_size: _,
        dram_bytes: _,
        nvm_bytes: _,
        value_bytes: _,
        preload_keys: _,
        tenants: _,
        admission: _,
        allow_remote_shutdown: _,
    } = spitfire_server::ServerConfig::default();
    match spitfire_txn::RecordKind::Commit {
        spitfire_txn::RecordKind::Update
        | spitfire_txn::RecordKind::Insert
        | spitfire_txn::RecordKind::Commit
        | spitfire_txn::RecordKind::Abort
        | spitfire_txn::RecordKind::CreateTable => {}
    }
    trait TruncateAbsent {
        fn truncate(&self) -> Absent {
            Absent
        }
    }
    impl TruncateAbsent for spitfire_txn::Wal {}
    let _: Absent = db.wal().truncate();

    // One restart path: every recovery loads a generation and replays its
    // tail, so the full-history path's table open (an allocator scan),
    // its index rebuild (a header scan) and its whole-log read stay gone;
    // so does the maintenance pause around a crash (`stop` / `start` do
    // that job).
    trait RestartPathAbsent {
        fn open() -> Absent {
            Absent
        }
        fn for_each_header(&self) -> Absent {
            Absent
        }
    }
    impl RestartPathAbsent for spitfire_txn::Table {}
    let _: Absent = spitfire_txn::Table::open();
    let table = spitfire_txn::Table::create(Arc::clone(&bm), 9, 8);
    let _: Absent = table.for_each_header();
    // A table's page list lives in the checkpoint generation and the log
    // tail: the catalog page chain, its head and the constructor that
    // walked it stay gone.
    trait CatalogChainAbsent {
        fn catalog_head(&self) -> Absent {
            Absent
        }
        fn open_with_slots() -> Absent {
            Absent
        }
    }
    impl CatalogChainAbsent for spitfire_txn::Table {}
    let _: Absent = table.catalog_head();
    let _: Absent = spitfire_txn::Table::open_with_slots();
    // The log reopens from its own pages: a whole-log scan is
    // `read_from(wal.base())`, and the base LSN is the base page's header,
    // not a cursor of its own.
    trait ReadAllAbsent {
        fn read_all(&self) -> Absent {
            Absent
        }
        fn read_all_checked(&self) -> Absent {
            Absent
        }
        fn base_lsn(&self) -> Absent {
            Absent
        }
    }
    impl ReadAllAbsent for spitfire_txn::Wal {}
    let _: Absent = db.wal().read_all();
    let _: Absent = db.wal().read_all_checked();
    let _: Absent = db.wal().base_lsn();
    trait PauseAbsent {
        fn pause_for_crash(&self) -> Absent {
            Absent
        }
        fn resume(&self) -> Absent {
            Absent
        }
    }
    impl PauseAbsent for Maintenance {}
    let maintenance = bm.maintenance();
    let _: Absent = maintenance.pause_for_crash();
    let _: Absent = maintenance.resume();

    // One snapshot type: `Database::snapshots()` hands out the store
    // itself (`store()` is the benchmark's shim and returns it), so the
    // engine wrapper, its unread checkpoint counter and gauge accessors,
    // the database's fault-injector forwarder, the store's recovery-only
    // readers (one pass in `recover` replaced them) and the error wrapper
    // stay gone. A second glob import of `SnapshotEngine`
    // makes the name ambiguous, and `TxnError::Snapshot` would resolve to
    // the variant before the trait's constant.
    mod engine_absent {
        pub struct SnapshotEngine;
    }
    {
        use engine_absent::*;
        // Unused while the name stays absent: that is the point.
        #[allow(unused_imports)]
        use spitfire_txn::*;
        let _: engine_absent::SnapshotEngine = SnapshotEngine;
    }
    trait StoreApiAbsent {
        fn checkpoints(&self) -> Absent {
            Absent
        }
        fn last_checkpoint_micros(&self) -> Absent {
            Absent
        }
        fn last_checkpoint_pages(&self) -> Absent {
            Absent
        }
        fn reload(&self) -> Absent {
            Absent
        }
        fn newest_valid(&self) -> Absent {
            Absent
        }
    }
    impl StoreApiAbsent for spitfire_txn::SnapshotStore {}
    let store: &spitfire_txn::SnapshotStore = db.snapshots();
    let _: &spitfire_txn::SnapshotStore = store.store();
    let _: Absent = store.checkpoints();
    let _: Absent = store.last_checkpoint_micros();
    let _: Absent = store.last_checkpoint_pages();
    let _: Absent = store.reload();
    let _: Absent = store.newest_valid();
    trait ForwarderAbsent {
        fn set_snapshot_fault_injector(
            &self,
            _: Option<Arc<spitfire_device::FaultInjector>>,
        ) -> Absent {
            Absent
        }
    }
    impl ForwarderAbsent for spitfire_txn::Database {}
    let _: Absent = db.set_snapshot_fault_injector(None);
    #[allow(non_upper_case_globals)]
    trait VariantAbsent {
        const Snapshot: Absent = Absent;
    }
    impl VariantAbsent for spitfire_txn::TxnError {}
    let _: Absent = spitfire_txn::TxnError::Snapshot;
}
