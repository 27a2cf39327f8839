//! Medians and percentiles over the samples a run collects.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty, which the report reads as "not observed in this workload".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `values`; 0 when empty.
pub fn min_of(values: impl Iterator<Item = f64>) -> f64 {
    values.min_by(|a, b| a.total_cmp(b)).unwrap_or(0.0)
}

/// The lowest median and the lowest 99th percentile over `slices`, in
/// nanoseconds: the latency of the slice the host disturbed least.
pub fn best_slice(slices: &mut [Samples]) -> (f64, f64) {
    (
        min_of(slices.iter_mut().map(Samples::p50)),
        min_of(slices.iter_mut().map(|s| s.percentile(99.0))),
    )
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nanosecond samples of one timed call, one entry per call.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u32>,
    sorted: bool,
}

impl Samples {
    pub fn from_ns(ns: impl Iterator<Item = u32>) -> Self {
        Samples {
            ns: ns.collect(),
            sorted: false,
        }
    }

    #[inline]
    pub fn push(&mut self, d: std::time::Duration) {
        self.ns.push(d.as_nanos().min(u32::MAX as u128) as u32);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Mean in nanoseconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&v| v as f64).sum::<f64>() / self.ns.len() as f64
    }

    /// The `p`-th percentile (nearest rank) in nanoseconds; 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1] as f64
    }

    /// Median in nanoseconds.
    pub fn p50(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest of 99 / 99.9 / 99.99 / 99.999 that still has at least
    /// ten samples beyond it, as (percentile, nanoseconds).
    pub fn tail(&mut self) -> (f64, f64) {
        let n = self.ns.len() as f64;
        let pct = [99.999, 99.99, 99.9, 99.0]
            .into_iter()
            .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
            .unwrap_or(99.0);
        (pct, self.percentile(pct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentiles_and_tail() {
        let mut s = Samples::default();
        for i in 1..=2000u64 {
            s.push(Duration::from_nanos(i));
        }
        assert_eq!(s.p50(), 1000.0);
        assert_eq!(s.percentile(99.0), 1980.0);
        // 2000 samples leave 20 beyond p99 but only 2 beyond p99.9.
        assert_eq!(s.tail(), (99.0, 1980.0));
    }
}
