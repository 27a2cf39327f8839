//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the Spitfire paper's evaluation (§6).
//!
//! All experiments run ~1000× smaller than the paper (MB instead of GB) at
//! identical capacity *ratios*; devices charge real wall-clock time from
//! the Table 1 cost models, so throughput *shapes* (who wins, by what
//! factor, where crossovers fall) are the reproduction target, not
//! absolute numbers. See `EXPERIMENTS.md` for the paper-vs-measured log.
//!
//! Environment knobs:
//!
//! * `SPITFIRE_QUICK=1` — shrink sweep ranges and measurement windows
//!   (smoke-test mode).
//! * `SPITFIRE_SECS=<f64>` — measurement window per point (default 1.0,
//!   quick 0.4).
//! * `SPITFIRE_THREADS=<n>` — "multi-threaded" worker count (default 8).
//! * `SPITFIRE_OBS=1` — enable the observability subsystem (latency
//!   histograms, gauges, background sampler) for the run; the experiment
//!   prints per-operation p50/p99 lines when it finishes.
//! * `--json <path>` (any experiment binary) — implies `SPITFIRE_OBS=1`
//!   and dumps the unified observability report (histograms + gauges +
//!   device stats + sampler series) as JSON to `<path>` on completion.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
use spitfire_device::{PersistenceTracking, SsdBackendConfig, TimeScale};
use spitfire_txn::{Database, DbConfig};
use spitfire_wkld::{RunnerConfig, TpccConfig, YcsbConfig, YcsbMix};

/// One mebibyte.
pub const MB: usize = 1 << 20;

/// Run `setup` with emulated device delays off, restoring full-fidelity
/// delays afterwards. Load phases are not measured, so charging Table 1
/// time for them only slows the harness down.
pub fn with_fast_setup<T>(bm: &BufferManager, setup: impl FnOnce() -> T) -> T {
    bm.admin().set_time_scale(TimeScale::ZERO);
    let out = setup();
    bm.admin().set_time_scale(TimeScale::REAL);
    out
}

/// As [`with_fast_setup`], for a full database (buffer manager + WAL).
pub fn with_fast_db_setup<T>(db: &Database, setup: impl FnOnce() -> T) -> T {
    db.set_time_scale(TimeScale::ZERO);
    let out = setup();
    db.set_time_scale(TimeScale::REAL);
    out
}

/// Page size used by every experiment (the paper's 16 KB).
pub const PAGE: usize = 16 * 1024;

/// Whether quick (smoke) mode is active.
pub fn quick() -> bool {
    std::env::var("SPITFIRE_QUICK").is_ok_and(|v| v != "0")
}

/// Measurement window per experiment point.
pub fn measure_secs() -> Duration {
    let default = if quick() { 0.4 } else { 1.0 };
    let secs = std::env::var("SPITFIRE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    Duration::from_secs_f64(secs)
}

/// Worker count for the multi-threaded configurations (paper: 16; default
/// 8 here — the emulation overlaps I/O waits, not CPU).
pub fn worker_threads() -> usize {
    std::env::var("SPITFIRE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// Standard runner configuration for one experiment point.
pub fn runner(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        warmup: if quick() {
            Duration::from_millis(150)
        } else {
            Duration::from_millis(400)
        },
        duration: measure_secs(),
        seed: 0x5F17F17E,
    }
}

/// SSD backend selected by `SPITFIRE_SSD_FILE`: set (non-`"0"`) to back
/// the SSD tier with a real file (`FileSsdDevice`, O_DIRECT where the
/// filesystem supports it, unlinked temp file) instead of the in-memory
/// emulation. Lets every experiment binary rerun against real storage
/// for an emulated-vs-file delta without a separate build.
pub fn ssd_backend_from_env() -> SsdBackendConfig {
    if std::env::var("SPITFIRE_SSD_FILE").is_ok_and(|v| v != "0") {
        SsdBackendConfig::File { path: None }
    } else {
        SsdBackendConfig::Emulated
    }
}

/// Build a three-tier buffer manager with the given capacities in bytes.
pub fn three_tier(dram: usize, nvm: usize, policy: MigrationPolicy) -> Arc<BufferManager> {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(dram)
        .nvm_capacity(nvm)
        .policy(policy)
        .persistence(PersistenceTracking::Counters)
        .time_scale(TimeScale::REAL)
        .ssd_backend(ssd_backend_from_env())
        .build()
        .expect("valid experiment config");
    let bm = Arc::new(BufferManager::new(config).expect("buffer manager"));
    if spitfire_obs::enabled() {
        spitfire_obs::register_source(&bm);
    }
    bm
}

/// Build a buffer manager from a full config builder closure.
pub fn manager_with(
    f: impl FnOnce(
        spitfire_core::BufferManagerConfigBuilder,
    ) -> spitfire_core::BufferManagerConfigBuilder,
) -> Arc<BufferManager> {
    let builder = BufferManagerConfig::builder()
        .page_size(PAGE)
        .persistence(PersistenceTracking::Counters)
        .time_scale(TimeScale::REAL)
        .ssd_backend(ssd_backend_from_env());
    let config = f(builder).build().expect("valid experiment config");
    let bm = Arc::new(BufferManager::new(config).expect("buffer manager"));
    if spitfire_obs::enabled() {
        spitfire_obs::register_source(&bm);
    }
    bm
}

/// The `--json <path>` / `--json=<path>` argument, if one was passed to
/// this binary.
pub fn obs_json_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(Into::into);
        }
        if let Some(p) = a.strip_prefix("--json=") {
            return Some(p.into());
        }
    }
    None
}

/// Whether observability was requested via `SPITFIRE_OBS=1` or `--json`.
pub fn obs_requested() -> bool {
    std::env::var("SPITFIRE_OBS").is_ok_and(|v| v != "0") || obs_json_path().is_some()
}

/// YCSB config for a database of `db_bytes` at skew `theta`.
pub fn ycsb_config(db_bytes: usize, theta: f64, mix: YcsbMix) -> YcsbConfig {
    YcsbConfig {
        records: (db_bytes / 1000) as u64,
        theta,
        mix,
    }
}

/// TPC-C config scaled so the loaded database is roughly `db_bytes`
/// (≈ 7 MB per warehouse at the scaled row counts: 10 k stock x ~550 B +
/// 3 k customers x ~550 B).
pub fn tpcc_config(db_bytes: usize) -> TpccConfig {
    TpccConfig {
        warehouses: ((db_bytes / (7 * MB)) as u64).max(1),
        customers_per_district: 300,
        items: 10_000,
    }
}

/// Create a transactional database on `bm` (the log follows the manager's
/// counters-only persistence tracking — the experiments measure
/// throughput, not crash recovery).
pub fn database(bm: Arc<BufferManager>) -> Database {
    Database::create(
        bm,
        DbConfig {
            log_buffer_bytes: 4 * MB,
        },
    )
    .expect("database")
}

/// Column-aligned result table writer that mirrors rows to stdout and a
/// CSV file under `results/`.
pub struct Reporter {
    name: String,
    csv: Option<std::fs::File>,
    headers: Vec<String>,
}

impl Reporter {
    /// Start a report named `name` (e.g. "fig6_bypass_dram"); prints the
    /// experiment banner and opens `results/<name>.csv`.
    pub fn new(name: &str, paper_ref: &str, expectation: &str) -> Self {
        println!("== {name} — {paper_ref}");
        println!("   paper: {expectation}");
        println!(
            "   mode: {} | window {:?} | workers {}",
            if quick() { "QUICK" } else { "full" },
            measure_secs(),
            worker_threads()
        );
        if obs_requested() {
            spitfire_obs::set_enabled(true);
            spitfire_obs::registry().reset_histograms();
            spitfire_obs::start_sampler(Duration::from_millis(200));
            println!(
                "   obs: recording on{}",
                if obs_json_path().is_some() {
                    " (+json dump)"
                } else {
                    ""
                }
            );
        }
        let csv = std::fs::create_dir_all("results")
            .ok()
            .and_then(|()| std::fs::File::create(format!("results/{name}.csv")).ok());
        Reporter {
            name: name.to_string(),
            csv,
            headers: Vec::new(),
        }
    }

    /// Set column headers.
    pub fn headers(&mut self, cols: &[&str]) {
        self.headers = cols.iter().map(|s| s.to_string()).collect();
        println!("   {}", cols.join(" | "));
        if let Some(f) = &mut self.csv {
            let _ = writeln!(f, "{}", cols.join(","));
        }
    }

    /// Emit one row.
    pub fn row(&mut self, cols: &[String]) {
        println!("   {}", cols.join(" | "));
        if let Some(f) = &mut self.csv {
            let _ = writeln!(f, "{}", cols.join(","));
        }
    }

    /// Finish, printing the CSV location — and, when observability is on,
    /// per-operation p50/p99 latency lines plus the `--json` report dump.
    pub fn done(self) {
        if spitfire_obs::enabled() {
            spitfire_obs::stop_sampler();
            let report = dump_obs_report(self.name.as_str());
            for h in &report.histograms {
                let ns = |q| Duration::from_nanos(h.snapshot.quantile(q).unwrap_or(0));
                println!(
                    "   obs {}: p50={} p99={} (n={})",
                    h.name,
                    fmt_us(ns(0.5)),
                    fmt_us(ns(0.99)),
                    h.snapshot.count
                );
            }
        }
        println!("   -> results/{}.csv\n", self.name);
    }
}

/// Capture the unified observability report (histograms, sampler series,
/// and the counters and gauges of every registered source) and, if a
/// `--json <path>` argument was passed, write it there.
pub fn dump_obs_report(name: &str) -> spitfire_obs::Report {
    let report = spitfire_obs::Report::capture();
    if let Some(path) = obs_json_path() {
        match std::fs::write(&path, report.to_json()) {
            Ok(()) => println!("   obs: {name} report -> {}", path.display()),
            Err(e) => eprintln!("   obs: failed to write {}: {e}", path.display()),
        }
    }
    report
}

/// Write a bench binary's result document to `BENCH_<name>.json` (or the
/// `--json <path>` override), rendered by the one JSON writer.
pub fn write_bench_json(name: &str, doc: &spitfire_obs::json::Json) {
    let path = obs_json_path().unwrap_or_else(|| format!("BENCH_{name}.json").into());
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => println!("   {name} -> {}", path.display()),
        Err(e) => eprintln!("   {name}: failed to write {}: {e}", path.display()),
    }
}

/// Format one measured point as throughput plus the run's sampled p50/p99
/// latency: `"12.3k ops/s [p50 8µs p99 1.2ms]"`.
pub fn point(report: &spitfire_wkld::RunReport) -> String {
    match (report.latency_quantile(0.5), report.latency_quantile(0.99)) {
        (Some(p50), Some(p99)) => format!(
            "{} ops/s [p50 {} p99 {}]",
            kops(report.throughput()),
            fmt_us(p50),
            fmt_us(p99)
        ),
        _ => format!("{} ops/s", kops(report.throughput())),
    }
}

/// Short human-readable duration: microseconds under 1 ms, else
/// milliseconds.
pub fn fmt_us(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us >= 1000.0 {
        format!("{:.1}ms", us / 1000.0)
    } else if us < 10.0 {
        format!("{us:.1}µs")
    } else {
        format!("{us:.0}µs")
    }
}

/// Format a throughput as "12.3k ops/s"-style short string.
pub fn kops(tput: f64) -> String {
    if tput >= 1_000_000.0 {
        format!("{:.2}M", tput / 1_000_000.0)
    } else if tput >= 1_000.0 {
        format!("{:.1}k", tput / 1_000.0)
    } else {
        format!("{tput:.0}")
    }
}

/// The four workloads §6.3 sweeps (three YCSB mixes + TPC-C).
pub fn policy_workload_labels() -> [&'static str; 4] {
    ["YCSB-RO", "YCSB-BA", "YCSB-WH", "TPC-C"]
}

/// Bytes written to NVM (buffer device) so far.
pub fn nvm_bytes_written(bm: &BufferManager) -> u64 {
    bm.device_stats(spitfire_core::Tier::Nvm)
        .map(|s| s.snapshot().bytes_written)
        .unwrap_or(0)
}

/// Background dirty-page flusher, emulating the paper's recovery-protocol
/// flushing of dirty DRAM pages (§5.2) during measurement. NVM-resident
/// dirty pages are never flushed (they are persistent), which is exactly
/// the NVM-SSD hierarchy's advantage in Figures 5, 14, and 15.
pub struct Flusher {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Flusher {
    /// Start flushing `bm`'s dirty DRAM pages every `period`.
    pub fn start(bm: Arc<BufferManager>, period: Duration) -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // relaxed: shutdown hint; the flusher may run one extra cycle.
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(period);
                let _ = bm.flush_all_dirty();
            }
        });
        Flusher {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        // relaxed: shutdown hint (see the worker loop).
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One workload instance bound to its own buffer manager, reusable across
/// policy sweep points (§6.3's experiments re-run the same workload under
/// different ⟨D, N⟩ settings).
pub enum PolicyWorkload {
    /// Buffer-manager-level YCSB.
    Raw {
        /// The buffer manager under test.
        bm: Arc<BufferManager>,
        /// The raw driver.
        w: spitfire_wkld::RawYcsb,
    },
    /// Full transactional TPC-C.
    Tpcc {
        /// The database under test (owns the buffer manager).
        db: Arc<Database>,
        /// The TPC-C driver.
        t: spitfire_wkld::Tpcc,
    },
}

impl PolicyWorkload {
    /// The buffer manager under test.
    pub fn bm(&self) -> &BufferManager {
        match self {
            PolicyWorkload::Raw { bm, .. } => bm,
            PolicyWorkload::Tpcc { db, .. } => db.buffer_manager(),
        }
    }

    /// Switch the migration policy, then run one timed point.
    pub fn run_point(&self, policy: MigrationPolicy, threads: usize) -> spitfire_wkld::RunReport {
        self.bm().admin().set_policy(policy);
        let config = runner(threads);
        match self {
            PolicyWorkload::Raw { bm, w } => spitfire_wkld::run_workload(&config, |_, rng| {
                w.execute(bm, rng).expect("raw ycsb op")
            }),
            PolicyWorkload::Tpcc { db, t } => {
                spitfire_wkld::run_workload(&config, |_, rng| t.execute(db, rng).expect("tpcc txn"))
            }
        }
    }
}

/// Build one §6.3 workload ("YCSB-RO" / "YCSB-BA" / "YCSB-WH" / "TPC-C")
/// on a fresh hierarchy. `setup_policy` governs migration during the load
/// phase — pass the first policy the sweep will measure so no carried-over
/// placement contaminates per-point metrics like NVM write volume.
pub fn build_one_workload(
    label: &str,
    dram: usize,
    nvm: usize,
    db_bytes: usize,
    setup_policy: MigrationPolicy,
) -> PolicyWorkload {
    use spitfire_wkld::{RawYcsb, Tpcc};
    match label {
        "TPC-C" => {
            let bm = three_tier(dram, nvm, setup_policy);
            let db = Arc::new(database(bm));
            let t = with_fast_db_setup(&db, || Tpcc::setup(&db, tpcc_config(db_bytes)))
                .expect("tpcc setup");
            PolicyWorkload::Tpcc { db, t }
        }
        _ => {
            let mix = match label {
                "YCSB-RO" => YcsbMix::ReadOnly,
                "YCSB-BA" => YcsbMix::Balanced,
                _ => YcsbMix::WriteHeavy,
            };
            let bm = three_tier(dram, nvm, setup_policy);
            let w = with_fast_setup(&bm, || RawYcsb::setup(&bm, ycsb_config(db_bytes, 0.3, mix)))
                .expect("ycsb setup");
            PolicyWorkload::Raw { bm, w }
        }
    }
}

/// Build the four §6.3 workloads (YCSB-RO/BA/WH over raw pages, TPC-C over
/// the full stack), each on a fresh hierarchy of the given byte sizes.
pub fn build_policy_workloads(
    dram: usize,
    nvm: usize,
    db_bytes: usize,
) -> Vec<(&'static str, PolicyWorkload)> {
    policy_workload_labels()
        .into_iter()
        .map(|label| {
            (
                label,
                build_one_workload(label, dram, nvm, db_bytes, MigrationPolicy::lazy()),
            )
        })
        .collect()
}
