//! Lock-free observability for the Spitfire buffer manager.
//!
//! This crate is the measurement foundation for the whole stack:
//!
//! * **Latency histograms** ([`hist`]) — HDR-style log-bucketed atomic
//!   histograms keyed by [`Op`] (fetch hit classes, the five migration
//!   paths, WAL append, commit, eviction), sharded per thread and merged on
//!   snapshot. Quantile error ≤ 3.1%.
//! * **Sources** ([`source`]) — every object that owns counters or gauges
//!   (buffer manager, database, server) implements [`Source`], names each
//!   of them once, and is registered weakly with [`register_source`].
//! * **Sampling** ([`sampler`]) — a background thread walks the sources
//!   (tier occupancy, dirty pages, policy vector, SA temperature, device
//!   byte counters, …) into a bounded in-memory time series.
//! * **Export** ([`export`]) — one unified [`Report`], captured by walking
//!   the same sources, rendered as Prometheus text or JSON.
//! * **JSON** ([`json`]) — the one JSON writer every artifact in the tree
//!   (reports, STATS, `BENCH_*.json`, loadgen) is rendered through.
//!
//! The hot-path contract (see [`recorder`]): when recording is disabled
//! (default), every instrumented site costs exactly one relaxed atomic
//! load. When enabled, [`op_start`] samples one call in
//! [`DEFAULT_SAMPLE_INTERVAL`] per thread (configurable via
//! [`set_sample_interval`]), amortizing the clock reads; the microbench
//! asserts the enabled overhead on the DRAM-hit fetch path stays under 5%.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod export;
pub mod hist;
pub mod json;
pub mod labels;
pub mod op;
pub mod recorder;
pub mod sampler;
pub mod source;

pub use export::{HistEntry, Report};
pub use hist::{Histogram, HistogramSet, HistogramSnapshot};
pub use labels::{labeled_histogram, labeled_snapshots, record_labeled, reset_labeled};
pub use op::{Op, OP_COUNT};
pub use recorder::{
    enabled, op_start, record_duration, record_since, sample_interval, set_enabled,
    set_sample_interval, DEFAULT_SAMPLE_INTERVAL,
};
pub use sampler::{sample_now, series_snapshot, start_sampler, stop_sampler, SeriesPoint};
pub use source::{register_source, set_gauge, Source};

use std::sync::OnceLock;

/// The global histogram registry: one sharded histogram per [`Op`].
pub struct Registry {
    hists: Vec<HistogramSet>,
}

impl Registry {
    /// The histogram for `op`.
    #[inline]
    pub fn histogram(&self, op: Op) -> &HistogramSet {
        &self.hists[op.index()]
    }

    /// Zero every histogram (counters and buckets).
    pub fn reset_histograms(&self) {
        for h in &self.hists {
            h.reset();
        }
    }
}

/// The process-wide registry (created on first use).
pub fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        hists: (0..OP_COUNT).map(|_| HistogramSet::new()).collect(),
    })
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    M.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn registry_histograms_are_per_op() {
        let _g = test_guard();
        registry().reset_histograms();
        record_duration(Op::WalAppend, Duration::from_nanos(500));
        record_duration(Op::WalAppend, Duration::from_nanos(700));
        record_duration(Op::TxnCommit, Duration::from_micros(3));
        assert_eq!(registry().histogram(Op::WalAppend).snapshot().count, 2);
        assert_eq!(registry().histogram(Op::TxnCommit).snapshot().count, 1);
        assert_eq!(registry().histogram(Op::FetchDramHit).snapshot().count, 0);
        registry().reset_histograms();
        assert_eq!(registry().histogram(Op::WalAppend).snapshot().count, 0);
    }

    #[test]
    fn report_capture_includes_recorded_ops() {
        let _g = test_guard();
        registry().reset_histograms();
        set_enabled(true);
        set_sample_interval(1);
        let t = op_start();
        std::thread::sleep(Duration::from_millis(1));
        record_since(Op::FetchSsdMiss, t);
        set_enabled(false);
        set_sample_interval(DEFAULT_SAMPLE_INTERVAL);
        let report = Report::capture();
        let entry = report
            .histograms
            .iter()
            .find(|h| h.name == "fetch_ssd_miss")
            .expect("fetch_ssd_miss histogram present");
        assert_eq!(entry.snapshot.count, 1);
        assert!(entry.snapshot.quantile(0.5).unwrap() >= 1_000_000);
        let json = report.to_json();
        assert!(json.contains("fetch_ssd_miss"));
        let prom = report.to_prometheus();
        assert!(prom.contains("op=\"fetch_ssd_miss\""));
        registry().reset_histograms();
    }
}
