//! The repo benchmark: four fixed-work workloads over the Spitfire stack,
//! eight end-to-end metrics and a per-layer ledger, all measured from
//! outside the crates through their public functions. See `README.md`.

pub mod counters;
pub mod host;
pub mod ladder;
pub mod ops;
pub mod oracle;
pub mod recovery;
pub mod report;
pub mod rng;
pub mod serverkv;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod ycsb;

use spec::Metrics;

/// Operations before a tick of the buffer manager's maintenance, where a
/// workload ticks at all.
pub const TICK_EVERY: u64 = 32;

/// Attempts a client makes at one operation before it counts as failed.
pub const ATTEMPTS: u32 = 4;

/// Segments measured per second asked for: 32 in a 20 s run. A segment is
/// a fixed number of ops and, on the write-heavy workload, the vacuum +
/// checkpoint that follow them.
pub const SEGMENTS_PER_SECOND: f64 = 1.6;

/// Slices a segment's ops are timed in: about 0.06 s each. Time-based
/// metrics are taken from the best slice, see `README.md`.
pub const SLICES: u64 = 10;

/// Set-ups timed in an untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Crash → recover cycles in an untraced run; `recover_ms` is the fastest.
pub const RECOVERIES: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the measured phase should take at the commit the op counts
    /// were sized on. Work is a fixed op count derived from this, not a
    /// time window: see the README.
    pub seconds: f64,
    /// Multiplies every op count; below 1 only for smoke runs and tests.
    pub scale: f64,
    /// Run the traced variant and report per-layer metrics.
    pub traced: bool,
}

impl RunArgs {
    /// Segments the measured phase runs. The traced run does half the work,
    /// in an even number of segments: plain and traced ones alternate.
    pub fn segments(&self) -> u64 {
        let full = ((SEGMENTS_PER_SECOND * self.seconds).round() as u64).max(2);
        if self.traced {
            (full / 2).max(2) & !1
        } else {
            full
        }
    }

    /// `count` scaled by `--scale`, but at least `floor`.
    pub fn scaled(&self, count: u64, floor: u64) -> u64 {
        ((count as f64 * self.scale) as u64).max(floor)
    }

    pub fn setups(&self) -> usize {
        if self.traced {
            1
        } else {
            SETUPS
        }
    }

    pub fn recoveries(&self) -> usize {
        if self.traced {
            1
        } else {
            RECOVERIES
        }
    }
}

/// `map_err` helper: the error as text, prefixed with what was being done.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// What one run found.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations and verification reads attempted.
    pub attempted: u64,
    /// Of those, how many failed or returned a wrong result.
    pub failed: u64,
    /// Human-readable lines: the host block, sample counts, mismatches.
    pub notes: Vec<String>,
    /// Counter delta over the measured phase (tests compare two runs).
    pub counters: counters::Counters,
    /// Hash of the op stream the run was offered.
    pub stream_hash: u64,
}

/// Where traces go: `benchmark/results` from the repo root, `results` from
/// inside the package (as `cargo test` runs).
pub fn results_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/results".into()
    } else {
        "results".into()
    }
}

/// Run the named workload.
pub fn run_workload(name: &str, args: RunArgs) -> Result<Outcome, String> {
    if name == serverkv::NAME {
        return serverkv::run(args);
    }
    let spec = ycsb::SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    ycsb::run(spec, args)
}
