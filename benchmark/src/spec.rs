//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and bounds. `BENCHMARK.json` states the same; a test holds
//! the two together.

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`,
/// and the default without the flag.
pub const RUN_SECONDS: u64 = 20;

/// A workload and why it is part of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "ycsb-ro-cached",
        why: "point reads on a 5 MB table that fits DRAM 4x: txn, index, sync, the core hit path and emulated DRAM do all the work; eviction, the miss path and WAL do none",
    },
    WorkloadDef {
        name: "ycsb-ro-tiered",
        why: "same reads on a 100 MB table, 1.3x DRAM+NVM: the core miss path, migration policy, replacement, Maintenance and the device cost model dominate",
    },
    WorkloadDef {
        name: "ycsb-wh-tiered",
        why: "90% updates on a 20 MB table growing by versions, vacuum+checkpoint each cycle: WAL, version allocation, index insert, write-back, snapshots, recovery",
    },
    WorkloadDef {
        name: "server-kv",
        why: "2 closed-loop TCP connections, 80/20 GET/PUT, against the server as shipped: wire codec, admission, DRR scheduler, thread hand-offs and Session autocommit dominate",
    },
];

/// A metric a user of the system would see, with its regression bound (the
/// share of the parent's median by which it may get worse).
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Each bound is at least three times the widest quartile distance seen
/// over ten seeds on any workload (README, "Measured spreads"), and at most
/// the 0.25 the driver allows.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndDef {
        name: "lat_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "nvm_write_bytes_per_op",
        unit: "B/op",
        better: "lower",
        bound: 0.06,
    },
    EndToEndDef {
        name: "ssd_write_bytes_per_op",
        unit: "B/op",
        better: "lower",
        bound: 0.03,
    },
    EndToEndDef {
        name: "space_amp",
        unit: "ratio",
        better: "lower",
        bound: 0.03,
    },
    EndToEndDef {
        name: "recover_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.06,
    },
];

/// What a run hands over for its end-to-end metrics; [`EndToEnd::put`] is
/// the one place their definitions live.
#[derive(Debug)]
pub struct EndToEnd<'a> {
    pub setup_secs: &'a [f64],
    pub ops_per_s: f64,
    /// Median of the best slice.
    pub lat_p50_ns: f64,
    /// Counters since the store was created, and the ops committed since
    /// then: loaded tuples, warm-up and measured ops.
    pub lifetime: &'a crate::counters::Counters,
    pub lifetime_ops: u64,
    pub space_amp: f64,
    pub recover_ms: &'a [f64],
}

impl EndToEnd<'_> {
    pub fn put(&self, m: &mut Metrics) {
        m.put("setup_s", crate::stats::median(self.setup_secs));
        m.put("ops_per_s", self.ops_per_s);
        m.put("lat_p50_us", self.lat_p50_ns / 1e3);
        // Over the life of the store — load, warm-up and measured phase —
        // so that the read-only workloads, which write to the devices only
        // before the measured phase, do not report 0.
        let per_op = |bytes: u64| bytes as f64 / self.lifetime_ops as f64;
        m.put(
            "nvm_write_bytes_per_op",
            per_op(self.lifetime.nvm_write_bytes()),
        );
        m.put(
            "ssd_write_bytes_per_op",
            per_op(self.lifetime.ssd_write_bytes()),
        );
        m.put("space_amp", self.space_amp);
        m.put(
            "recover_ms",
            crate::stats::min_of(self.recover_ms.iter().copied()),
        );
        m.put("peak_rss_mb", crate::host::peak_rss_mb());
    }
}

/// A metric of one layer. `better` is the direction that usually means
/// less cost; per-layer metrics carry no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: &[PerLayerDef] = &[
    // device: the buffer manager's three devices.
    lower("device.dram.read_bytes_per_op", "B/op"),
    lower("device.nvm.read_bytes_per_op", "B/op"),
    lower("device.nvm.write_bytes_per_op", "B/op"),
    lower("device.nvm.flush_bytes_per_op", "B/op"),
    lower("device.nvm.fences_per_op", "1/op"),
    lower("device.ssd.read_ops_per_op", "1/op"),
    lower("device.ssd.write_ops_per_op", "1/op"),
    lower("device.ssd.read_bytes_per_op", "B/op"),
    lower("device.ssd.write_bytes_per_op", "B/op"),
    lower("device.dram.busy_ns_per_op", "ns/op"),
    lower("device.nvm.busy_ns_per_op", "ns/op"),
    lower("device.ssd.busy_ns_per_op", "ns/op"),
    lower("device.charge_dram_ns", "ns"),
    lower("device.charge_nvm_ns", "ns"),
    lower("device.charge_ssd_ns", "ns"),
    lower("device.charge_err_pct", "%"),
    // sync
    lower("sync.pinword_ns", "ns"),
    lower("sync.crc32_ns_per_kb", "ns/KB"),
    lower("sync.chashmap_get_ns", "ns"),
    // core
    lower("core.fetches_per_op", "1/op"),
    higher("core.dram_hit_share", "ratio"),
    higher("core.nvm_hit_share", "ratio"),
    lower("core.ssd_fetch_share", "ratio"),
    higher("core.fetch_fast_share", "ratio"),
    lower("core.fetch_fallbacks_per_op", "1/op"),
    lower("core.pin_restarts_per_op", "1/op"),
    lower("core.evictions_dram_per_op", "1/op"),
    lower("core.evictions_nvm_per_op", "1/op"),
    lower("core.mig.ssd_to_nvm_per_op", "1/op"),
    lower("core.mig.nvm_to_dram_per_op", "1/op"),
    lower("core.mig.ssd_to_dram_per_op", "1/op"),
    lower("core.mig.nvm_to_ssd_per_op", "1/op"),
    lower("core.mig.dram_to_nvm_per_op", "1/op"),
    lower("core.mig.dram_to_ssd_per_op", "1/op"),
    lower("core.migrations_aborted_per_op", "1/op"),
    lower("core.shadow_abort_share", "ratio"),
    lower("core.backpressure_fallbacks_per_op", "1/op"),
    lower("core.maint_evictions_per_op", "1/op"),
    lower("core.maint_writebacks_per_op", "1/op"),
    lower("core.io_retries", "count"),
    lower("core.tick_share", "ratio"),
    lower("core.fetch_dram_hit_ns", "ns"),
    lower("core.fetch_nvm_hit_ns", "ns"),
    lower("core.fetch_miss_ns", "ns"),
    // index
    lower("index.get_ns", "ns"),
    lower("index.insert_ns", "ns"),
    lower("index.height", "count"),
    lower("index.fetches_per_get", "count"),
    // txn
    lower("txn.begin_ns", "ns"),
    lower("txn.read_ns", "ns"),
    lower("txn.update_ns", "ns"),
    lower("txn.commit_ro_ns", "ns"),
    lower("txn.commit_rw_ns", "ns"),
    lower("txn.session_get_ns", "ns"),
    lower("txn.session_put_ns", "ns"),
    lower("txn.aborts_per_op", "1/op"),
    lower("txn.wal_bytes_per_op", "B/op"),
    lower("txn.wal.nvm_write_bytes_per_op", "B/op"),
    lower("txn.wal.file_write_bytes_per_op", "B/op"),
    lower("txn.wal.fences_per_op", "1/op"),
    lower("txn.vacuum_ms", "ms"),
    higher("txn.vacuum_freed_per_call", "count"),
    lower("txn.checkpoint_ms", "ms"),
    lower("txn.maint_share", "ratio"),
    lower("txn.recover.redone", "count"),
    lower("txn.recover.index_entries", "count"),
    // snapshot
    higher("snapshot.generations", "count"),
    lower("snapshot.pages_per_ckpt", "count"),
    lower("snapshot.write_bytes_per_ckpt", "B"),
    lower("snapshot.recover_pages", "count"),
    // server
    lower("server.codec_ns", "ns"),
    lower("server.admit_ns", "ns"),
    lower("server.sched_ns", "ns"),
    lower("server.self_us", "us"),
    lower("server.sheds_per_op", "1/op"),
    lower("server.retries_per_op", "1/op"),
    lower("server.protocol_errors", "count"),
    // host and harness: what explains a moved number no layer accounts for.
    lower("host.ctl_before_ns", "ns"),
    lower("host.ctl_after_ns", "ns"),
    higher("host.parallel_speedup", "ratio"),
    lower("harness.clock_ns", "ns"),
    lower("trace.overhead_pct", "%"),
    lower("e2e.lat_p99_us", "us"),
    lower("e2e.lat_tail_us", "us"),
    higher("e2e.lat_tail_pct", "%"),
    // ledger: self time per operation, layer by layer.
    lower("ledger.harness_ns", "ns/op"),
    lower("ledger.server_ns", "ns/op"),
    lower("ledger.txn_ns", "ns/op"),
    lower("ledger.index_ns", "ns/op"),
    lower("ledger.core_ns", "ns/op"),
    lower("ledger.device_ns", "ns/op"),
    lower("ledger.residual_pct", "%"),
];

/// Values of one run, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().copied()
    }

    /// Check the values against the declared list: every declared name
    /// exactly once with a finite value, and nothing undeclared.
    pub fn check_against<'a>(
        &self,
        declared: impl Iterator<Item = &'a str> + Clone,
    ) -> Result<(), String> {
        for name in declared.clone() {
            let hits: Vec<f64> = self
                .values
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect();
            match hits.as_slice() {
                [v] if v.is_finite() => {}
                [v] => return Err(format!("metric {name} is not finite: {v}")),
                [] => return Err(format!("metric {name} is missing")),
                _ => return Err(format!("metric {name} reported {} times", hits.len())),
            }
        }
        for (name, _) in &self.values {
            if !declared.clone().any(|d| d == *name) {
                return Err(format!("metric {name} is not declared in spec.rs"));
            }
        }
        Ok(())
    }
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(PER_LAYER.iter().map(|d| (d.name, d.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}
