//! Every counter the crates publish, read at a phase boundary.
//!
//! Reading costs a few loads, so both the untraced and the traced run do
//! it. With one client thread and ticked maintenance every field repeats
//! exactly from run to run.

use spitfire_core::{BufferManager, MetricsSnapshot, MigrationPath, Tier};
use spitfire_device::{DeviceProfile, StatsSnapshot};
use spitfire_txn::Database;

use crate::spec::Metrics;

/// Traffic of the buffer manager's three devices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceTraffic {
    pub dram: StatsSnapshot,
    pub nvm: StatsSnapshot,
    pub ssd: StatsSnapshot,
}

impl DeviceTraffic {
    pub fn read(bm: &BufferManager) -> Self {
        let tier = |t| bm.device_stats(t).map(|s| s.snapshot()).unwrap_or_default();
        DeviceTraffic {
            dram: tier(Tier::Dram),
            nvm: tier(Tier::Nvm),
            ssd: tier(Tier::Ssd),
        }
    }

    pub fn since(&self, earlier: &DeviceTraffic) -> DeviceTraffic {
        DeviceTraffic {
            dram: self.dram.delta(&earlier.dram),
            nvm: self.nvm.delta(&earlier.nvm),
            ssd: self.ssd.delta(&earlier.ssd),
        }
    }

    /// Device time the Table 1 profiles charge for this traffic, as
    /// (dram, nvm, ssd) nanoseconds: the floor no software change removes.
    pub fn busy_ns(&self) -> (f64, f64, f64) {
        (
            busy_ns(&self.dram, &DeviceProfile::dram()),
            busy_ns(&self.nvm, &DeviceProfile::optane_pmm()),
            busy_ns(&self.ssd, &DeviceProfile::optane_ssd()),
        )
    }

    /// [`busy_ns`](Self::busy_ns) summed over the three devices.
    pub fn busy_ns_total(&self) -> f64 {
        let (dram, nvm, ssd) = self.busy_ns();
        dram + nvm + ssd
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub bm: MetricsSnapshot,
    pub devices: DeviceTraffic,
    pub wal_nvm: StatsSnapshot,
    pub wal_file: StatsSnapshot,
    pub snapshot_store: StatsSnapshot,
    pub wal_lsn: u64,
    pub commits: u64,
    pub aborts: u64,
}

impl Counters {
    pub fn read(db: &Database) -> Self {
        let bm = db.buffer_manager();
        let (commits, aborts) = db.txn_stats();
        Counters {
            bm: bm.metrics(),
            devices: DeviceTraffic::read(bm),
            wal_nvm: db.wal().nvm_stats().snapshot(),
            wal_file: db.wal().file_stats().snapshot(),
            snapshot_store: db
                .snapshot_engine()
                .map(|e| e.store().stats())
                .unwrap_or_default(),
            wal_lsn: db.wal().current_lsn(),
            commits,
            aborts,
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            bm: self.bm.delta(&earlier.bm),
            devices: self.devices.since(&earlier.devices),
            wal_nvm: self.wal_nvm.delta(&earlier.wal_nvm),
            wal_file: self.wal_file.delta(&earlier.wal_file),
            snapshot_store: self.snapshot_store.delta(&earlier.snapshot_store),
            wal_lsn: self.wal_lsn - earlier.wal_lsn,
            commits: self.commits - earlier.commits,
            aborts: self.aborts - earlier.aborts,
        }
    }

    /// Bytes written to NVM: the buffer's NVM device and the WAL's NVM log.
    pub fn nvm_write_bytes(&self) -> u64 {
        self.devices.nvm.bytes_written + self.wal_nvm.bytes_written
    }

    /// Bytes written to SSD: data device, WAL file and snapshot store.
    pub fn ssd_write_bytes(&self) -> u64 {
        self.devices.ssd.bytes_written
            + self.wal_file.bytes_written
            + self.snapshot_store.bytes_written
    }
}

fn busy_ns(s: &StatsSnapshot, p: &DeviceProfile) -> f64 {
    let transfer = |bytes: u64, bw: u64| bytes as f64 * 1e9 / bw as f64;
    s.read_ops as f64 * p.rand_read_latency_ns as f64
        + transfer(s.bytes_read, p.rand_read_bw)
        + s.write_ops as f64 * p.write_latency_ns as f64
        + transfer(s.bytes_written, p.rand_write_bw)
}

/// The per-layer metrics that are plain counts: `d` is the measured
/// phase's delta, `ops` its committed operations.
pub fn put_count_metrics(m: &mut Metrics, d: &Counters, ops: f64) {
    let per_op = |v: u64| v as f64 / ops;
    let share = |v: u64, of: u64| if of == 0 { 0.0 } else { v as f64 / of as f64 };

    let dev = &d.devices;
    m.put("device.dram.read_bytes_per_op", per_op(dev.dram.bytes_read));
    m.put("device.nvm.read_bytes_per_op", per_op(dev.nvm.bytes_read));
    m.put(
        "device.nvm.write_bytes_per_op",
        per_op(dev.nvm.bytes_written),
    );
    m.put(
        "device.nvm.flush_bytes_per_op",
        per_op(dev.nvm.bytes_flushed),
    );
    m.put("device.nvm.fences_per_op", per_op(dev.nvm.fences));
    m.put("device.ssd.read_ops_per_op", per_op(dev.ssd.read_ops));
    m.put("device.ssd.write_ops_per_op", per_op(dev.ssd.write_ops));
    m.put("device.ssd.read_bytes_per_op", per_op(dev.ssd.bytes_read));
    m.put(
        "device.ssd.write_bytes_per_op",
        per_op(dev.ssd.bytes_written),
    );
    let (dram, nvm, ssd) = dev.busy_ns();
    m.put("device.dram.busy_ns_per_op", dram / ops);
    m.put("device.nvm.busy_ns_per_op", nvm / ops);
    m.put("device.ssd.busy_ns_per_op", ssd / ops);

    let b = &d.bm;
    let requests = b.total_requests();
    m.put("core.fetches_per_op", per_op(requests));
    m.put("core.dram_hit_share", share(b.dram_hits, requests));
    m.put("core.nvm_hit_share", share(b.nvm_hits, requests));
    m.put("core.ssd_fetch_share", share(b.ssd_fetches, requests));
    m.put(
        "core.fetch_fast_share",
        share(b.fetch_fast, b.fetch_fast + b.fetch_fallbacks),
    );
    m.put("core.fetch_fallbacks_per_op", per_op(b.fetch_fallbacks));
    m.put("core.pin_restarts_per_op", per_op(b.pin_restarts));
    m.put("core.evictions_dram_per_op", per_op(b.evictions_dram));
    m.put("core.evictions_nvm_per_op", per_op(b.evictions_nvm));
    m.put(
        "core.mig.ssd_to_nvm_per_op",
        per_op(b.path(MigrationPath::SsdToNvm)),
    );
    m.put(
        "core.mig.nvm_to_dram_per_op",
        per_op(b.path(MigrationPath::NvmToDram)),
    );
    m.put(
        "core.mig.ssd_to_dram_per_op",
        per_op(b.path(MigrationPath::SsdToDram)),
    );
    m.put(
        "core.mig.nvm_to_ssd_per_op",
        per_op(b.path(MigrationPath::NvmToSsd)),
    );
    m.put(
        "core.mig.dram_to_nvm_per_op",
        per_op(b.path(MigrationPath::DramToNvm)),
    );
    m.put(
        "core.mig.dram_to_ssd_per_op",
        per_op(b.path(MigrationPath::DramToSsd)),
    );
    m.put(
        "core.migrations_aborted_per_op",
        per_op(b.migrations_aborted),
    );
    let shadow_commits: u64 = b.shadow_commits.iter().sum();
    m.put(
        "core.shadow_abort_share",
        share(b.migrations_aborted, b.migrations_aborted + shadow_commits),
    );
    m.put(
        "core.backpressure_fallbacks_per_op",
        per_op(b.backpressure_fallbacks),
    );
    m.put("core.maint_evictions_per_op", per_op(b.maint_evictions));
    m.put("core.maint_writebacks_per_op", per_op(b.maint_writebacks));
    m.put("core.io_retries", b.io_retries as f64);

    m.put("txn.aborts_per_op", per_op(d.aborts));
    m.put("txn.wal_bytes_per_op", per_op(d.wal_lsn));
    m.put(
        "txn.wal.nvm_write_bytes_per_op",
        per_op(d.wal_nvm.bytes_written),
    );
    m.put(
        "txn.wal.file_write_bytes_per_op",
        per_op(d.wal_file.bytes_written),
    );
    m.put("txn.wal.fences_per_op", per_op(d.wal_nvm.fences));
}
