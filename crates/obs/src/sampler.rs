//! The background sampler thread and its in-memory time series.
//!
//! The sampler thread, started with [`start_sampler`], walks the
//! registered [`Source`](crate::Source)s on a fixed tick and records every
//! counter and gauge they report (plus the manual gauges) into a bounded
//! time series readable via [`series_snapshot`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::export::Report;

/// Maximum retained ticks in the in-memory time series.
pub const SERIES_CAPACITY: usize = 4096;

struct Sampler {
    series: Mutex<SeriesBuf>,
    running: AtomicBool,
    stop: AtomicBool,
    /// Time zero of every [`SeriesPoint::t_ms`].
    epoch: Instant,
}

struct SeriesBuf {
    points: Vec<SeriesPoint>,
    head: usize,
}

/// One sampler tick: timestamp plus every counter and gauge at that
/// instant.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// Milliseconds since the sampler's epoch (its first use in the
    /// process).
    pub t_ms: u64,
    /// Counter and gauge values, sorted by name.
    pub values: Vec<(String, f64)>,
}

fn registry() -> &'static Sampler {
    static REG: OnceLock<Sampler> = OnceLock::new();
    REG.get_or_init(|| Sampler {
        series: Mutex::new(SeriesBuf {
            points: Vec::new(),
            head: 0,
        }),
        running: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        epoch: Instant::now(),
    })
}

/// Nanoseconds since the sampler's epoch.
fn now_ns() -> u64 {
    registry().epoch.elapsed().as_nanos() as u64
}

fn push_point(point: SeriesPoint) {
    let mut series = registry().series.lock().unwrap();
    if series.points.len() < SERIES_CAPACITY {
        series.points.push(point);
    } else {
        let head = series.head;
        series.points[head] = point;
        series.head = (head + 1) % SERIES_CAPACITY;
    }
}

/// Chronological copy of the recorded time series.
pub fn series_snapshot() -> Vec<SeriesPoint> {
    let series = registry().series.lock().unwrap();
    let mut out = Vec::with_capacity(series.points.len());
    out.extend(series.points[series.head..].iter().cloned());
    out.extend(series.points[..series.head].iter().cloned());
    out
}

/// Discard the recorded time series.
pub fn clear_series() {
    let mut series = registry().series.lock().unwrap();
    series.points.clear();
    series.head = 0;
}

/// Record one tick synchronously (also used by the sampler thread).
pub fn sample_now() {
    let mut tick = Report::default();
    crate::source::collect(&mut tick);
    let mut values = tick.gauges;
    values.extend(tick.counters.into_iter().map(|(n, v)| (n, v as f64)));
    push_point(SeriesPoint {
        t_ms: now_ns() / 1_000_000,
        values: values.into_iter().collect(),
    });
}

/// Start the global background sampler at `interval` (idempotent). The
/// thread is detached and parks itself when [`stop_sampler`] is called.
pub fn start_sampler(interval: Duration) {
    let reg = registry();
    if reg.running.swap(true, Ordering::SeqCst) {
        return;
    }
    reg.stop.store(false, Ordering::SeqCst);
    std::thread::Builder::new()
        .name("spitfire-obs-sampler".into())
        .spawn(move || {
            let reg = registry();
            while !reg.stop.load(Ordering::SeqCst) {
                sample_now();
                std::thread::sleep(interval);
            }
            reg.running.store(false, Ordering::SeqCst);
        })
        .expect("spawn sampler thread");
}

/// Ask the background sampler to exit after its current tick.
pub fn stop_sampler() {
    registry().stop.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_gauge;

    #[test]
    fn series_records_ticks_in_order() {
        let _g = crate::test_guard();
        clear_series();
        set_gauge("test_series_gauge", 7.0);
        sample_now();
        sample_now();
        let series = series_snapshot();
        assert!(series.len() >= 2);
        assert!(series.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
        assert!(series
            .last()
            .unwrap()
            .values
            .iter()
            .any(|(n, v)| n == "test_series_gauge" && *v == 7.0));
    }

    #[test]
    fn background_sampler_ticks_and_stops() {
        let _g = crate::test_guard();
        clear_series();
        start_sampler(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(40));
        stop_sampler();
        let n = series_snapshot().len();
        assert!(n >= 2, "expected several ticks, got {n}");
        // Give the thread a moment to observe the stop flag and exit.
        std::thread::sleep(Duration::from_millis(30));
    }
}
