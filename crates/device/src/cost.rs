//! Wall-clock cost model with bandwidth reservation.
//!
//! Every emulated device charges each access two components:
//!
//! * a **latency** component, paid concurrently by each accessing thread
//!   (idle latencies from Table 1), and
//! * a **transfer** component, `effective_bytes / bandwidth`, serialized
//!   through a per-device reservation clock so that concurrent threads
//!   queue behind one another exactly as they would on a saturated device.
//!
//! The reservation clock is a single atomic holding the timestamp (in
//! emulated nanoseconds since the model was created) at which the device
//! becomes free. A transfer atomically advances the clock by its duration
//! and then the calling thread waits until its reserved slot has passed.
//! This simple M/D/1-style model is what lets the experiments reproduce the
//! paper's saturation effects (e.g. the SSD becoming the bottleneck at 16
//! worker threads in §6.3) without real hardware.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::profile::DeviceProfile;

/// Scale factor applied to every emulated delay.
///
/// `TimeScale::REAL` charges the full modelled duration; `TimeScale::ZERO`
/// disables delays entirely (used by unit tests, which only care about the
/// byte/op counters); intermediate values compress experiment wall-clock
/// time while preserving all performance *ratios*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScale(pub f64);

impl TimeScale {
    /// No emulated delays; counters only.
    pub const ZERO: TimeScale = TimeScale(0.0);
    /// Full Table 1 delays.
    pub const REAL: TimeScale = TimeScale(1.0);

    /// Whether delays are enabled at all.
    pub fn enabled(self) -> bool {
        self.0 > 0.0
    }
}

impl Default for TimeScale {
    fn default() -> Self {
        TimeScale::REAL
    }
}

/// Whether an access is sequential or random, for profile lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Access adjacent to the device's recent stream (prefetch-friendly).
    Sequential,
    /// Independent access (the common case for a buffer manager).
    Random,
}

/// Shared per-device cost model. Cloneable handles are not provided; wrap in
/// `Arc` when shared across device facades.
#[derive(Debug)]
pub struct CostModel {
    profile: DeviceProfile,
    /// Bit pattern of the `f64` scale; mutable so harnesses can run load
    /// phases with delays off and measurement phases at full fidelity.
    scale_bits: AtomicU64,
    /// Emulated-nanosecond timestamp at which the device's transfer engine
    /// becomes free, relative to `epoch`.
    busy_until_ns: AtomicU64,
    epoch: Instant,
}

/// Threshold above which we park the thread instead of spinning.
const SPIN_LIMIT: Duration = Duration::from_micros(100);

static OVERHEAD: std::sync::OnceLock<u64> = std::sync::OnceLock::new();

/// The once-per-process `charge` overhead calibration in nanoseconds, or
/// `None` while no emulated delay has been charged yet. Read-only: looking
/// never triggers the measurement.
pub fn charge_overhead_calibration() -> Option<u64> {
    OVERHEAD.get().copied()
}

/// Fixed bookkeeping overhead of one `charge` call (clock reads and the
/// wait loop), measured once and subtracted from every emulated delay so
/// short DRAM-scale latencies stay accurate on slow hosts.
fn charge_overhead_ns() -> u64 {
    *OVERHEAD.get_or_init(|| {
        let start = Instant::now();
        let mut sink = 0u64;
        const N: u32 = 4096;
        for _ in 0..N {
            // Two clock reads per charge: one in charge(), one in the wait
            // loop's first iteration.
            sink = sink.wrapping_add(Instant::now().elapsed().as_nanos() as u64);
        }
        std::hint::black_box(sink);
        (start.elapsed().as_nanos() as u64 / N as u64).min(500)
    })
}

impl CostModel {
    /// Create a cost model for `profile` with delays scaled by `scale`.
    pub fn new(profile: DeviceProfile, scale: TimeScale) -> Self {
        CostModel {
            profile,
            scale_bits: AtomicU64::new(scale.0.to_bits()),
            busy_until_ns: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The profile this model charges against.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The current time scale.
    pub fn scale(&self) -> TimeScale {
        // relaxed: the scale is a standalone tuning knob; a stale reading is just the previous scale, which is valid.
        TimeScale(f64::from_bits(self.scale_bits.load(Ordering::Relaxed)))
    }

    /// Change the time scale. Harnesses disable delays (`TimeScale::ZERO`)
    /// during load phases and restore `TimeScale::REAL` for measurement.
    pub fn set_scale(&self, scale: TimeScale) {
        // relaxed: see `scale`.
        self.scale_bits.store(scale.0.to_bits(), Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Charge a read of `bytes` logical bytes; returns the effective number
    /// of bytes moved at the media level.
    pub fn charge_read(&self, bytes: usize, pattern: AccessPattern) -> usize {
        let effective = self.profile.effective_transfer(bytes);
        let (lat, bw) = match pattern {
            AccessPattern::Sequential => {
                (self.profile.seq_read_latency_ns, self.profile.seq_read_bw)
            }
            AccessPattern::Random => (self.profile.rand_read_latency_ns, self.profile.rand_read_bw),
        };
        self.charge(lat, effective, bw);
        effective
    }

    /// Charge a write of `bytes` logical bytes; returns the effective number
    /// of bytes moved at the media level.
    pub fn charge_write(&self, bytes: usize, pattern: AccessPattern) -> usize {
        let effective = self.profile.effective_transfer(bytes);
        let (lat, bw) = match pattern {
            AccessPattern::Sequential => (self.profile.write_latency_ns, self.profile.seq_write_bw),
            AccessPattern::Random => (self.profile.write_latency_ns, self.profile.rand_write_bw),
        };
        self.charge(lat, effective, bw);
        effective
    }

    fn charge(&self, latency_ns: u64, bytes: usize, bandwidth: u64) {
        let scale = self.scale();
        if !scale.enabled() {
            return;
        }
        let transfer_ns = if bandwidth == 0 {
            0
        } else {
            (bytes as u128 * 1_000_000_000 / bandwidth as u128) as u64
        };
        let scaled_transfer = (transfer_ns as f64 * scale.0) as u64;
        let scaled_latency = (latency_ns as f64 * scale.0) as u64;

        let now = self.now_ns();
        // Reserve a slot on the transfer engine: advance busy_until by our
        // transfer time, starting from max(now, previous reservation).
        let mut start = now;
        if scaled_transfer > 0 {
            let prev = self
                .busy_until_ns
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |busy| {
                    Some(busy.max(now) + scaled_transfer)
                })
                .expect("fetch_update closure always returns Some");
            start = prev.max(now);
        }
        let finish =
            (start + scaled_transfer + scaled_latency).saturating_sub(charge_overhead_ns());
        self.wait_until(finish);
    }

    fn wait_until(&self, target_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= target_ns {
                return;
            }
            let remaining = Duration::from_nanos(target_ns - now);
            if remaining > SPIN_LIMIT {
                // Long waits (SSD under saturation): park so other worker
                // threads can run, mirroring a blocking I/O submission.
                std::thread::sleep(remaining - SPIN_LIMIT / 2);
            } else if remaining > Duration::from_micros(3) {
                // Medium waits: let another worker have the core. Vital on
                // machines with fewer cores than worker threads.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;
    use std::sync::Arc;

    #[test]
    fn zero_scale_charges_nothing_but_reports_effective_bytes() {
        let m = CostModel::new(DeviceProfile::optane_pmm(), TimeScale::ZERO);
        let start = Instant::now();
        let eff = m.charge_read(1, AccessPattern::Random);
        assert_eq!(eff, 256);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn real_scale_charges_at_least_latency() {
        let m = CostModel::new(DeviceProfile::optane_ssd(), TimeScale::REAL);
        let start = Instant::now();
        m.charge_read(16 * 1024, AccessPattern::Random);
        // 12 us latency + ~6.8 us transfer.
        assert!(start.elapsed() >= Duration::from_micros(12));
    }

    #[test]
    fn concurrent_transfers_serialize_on_bandwidth() {
        // 8 concurrent 16 KB SSD reads at 2.4 GB/s need >= 8 * 6.8 us of
        // transfer time even though latency overlaps.
        let m = Arc::new(CostModel::new(DeviceProfile::optane_ssd(), TimeScale::REAL));
        let start = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    m.charge_read(16 * 1024, AccessPattern::Random);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let serial_transfer = Duration::from_nanos(8 * 16384 * 1_000_000_000 / 2_400_000_000);
        assert!(
            start.elapsed() >= serial_transfer,
            "elapsed {:?} < serialized transfer {:?}",
            start.elapsed(),
            serial_transfer
        );
    }

    #[test]
    fn sequential_cheaper_than_random_on_nvm() {
        // Comparing two wall-clock measurements is sensitive to scheduler
        // preemption when the whole workspace's test binaries run in
        // parallel, so take the best of a few attempts before failing.
        let n = 64;
        let mut last = (Duration::ZERO, Duration::ZERO);
        for _ in 0..5 {
            let m = CostModel::new(DeviceProfile::optane_pmm(), TimeScale::REAL);
            let start = Instant::now();
            for _ in 0..n {
                m.charge_read(4096, AccessPattern::Sequential);
            }
            let seq = start.elapsed();
            let start = Instant::now();
            for _ in 0..n {
                m.charge_read(4096, AccessPattern::Random);
            }
            let rand = start.elapsed();
            if rand > seq {
                return;
            }
            last = (seq, rand);
        }
        panic!(
            "random {:?} should exceed sequential {:?} in at least one of 5 attempts",
            last.1, last.0
        );
    }
}
