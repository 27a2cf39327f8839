//! Multi-threaded workload runner: warm-up, timed measurement, and
//! epoch-based sampling for the adaptive-policy experiments.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runner parameters.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Untimed warm-up phase.
    pub warmup: Duration,
    /// Timed measurement phase.
    pub duration: Duration,
    /// Base RNG seed (each worker derives its own).
    pub seed: u64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: 1,
            warmup: Duration::from_millis(200),
            duration: Duration::from_secs(1),
            seed: 0xC0FFEE,
        }
    }
}

/// Result of a timed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Operations that committed during the measurement phase.
    pub committed: u64,
    /// Operations attempted (committed + aborted).
    pub attempted: u64,
    /// Actual measured wall-clock time.
    pub elapsed: Duration,
    /// Sampled per-operation latencies (every 32nd operation), sorted.
    pub latency_samples: Vec<Duration>,
}

impl RunReport {
    /// Committed operations per second.
    pub fn throughput(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Fraction of attempts that aborted.
    pub fn abort_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.committed as f64 / self.attempted as f64
    }

    /// Latency at quantile `q` in `[0, 1]` (e.g. 0.5, 0.99) from the
    /// sampled operations; `None` when nothing was sampled.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        if self.latency_samples.is_empty() {
            return None;
        }
        let idx = ((self.latency_samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(self.latency_samples[idx])
    }

    /// One-line p50/p99 summary of the sampled latencies, for printing
    /// alongside throughput: `lat p50=12.3µs p99=456.7µs (n=1024)`.
    pub fn latency_summary(&self) -> String {
        match (self.latency_quantile(0.5), self.latency_quantile(0.99)) {
            (Some(p50), Some(p99)) => format!(
                "lat p50={:.1}µs p99={:.1}µs (n={})",
                p50.as_secs_f64() * 1e6,
                p99.as_secs_f64() * 1e6,
                self.latency_samples.len()
            ),
            _ => "lat n/a".to_string(),
        }
    }
}

/// Run `op` from `config.threads` workers: warm up, then measure.
///
/// `op(worker_index, rng)` returns whether the operation committed; it is
/// expected to panic on real errors (experiment harnesses want failures
/// loud).
pub fn run_workload<F>(config: &RunnerConfig, op: F) -> RunReport
where
    F: Fn(usize, &mut SmallRng) -> bool + Send + Sync,
{
    let op = &op;
    let committed = AtomicU64::new(0);
    let attempted = AtomicU64::new(0);
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let samples = parking_lot::Mutex::new(Vec::new());
    let mut elapsed = Duration::ZERO;

    std::thread::scope(|scope| {
        for t in 0..config.threads {
            let committed = &committed;
            let attempted = &attempted;
            let measuring = &measuring;
            let stop = &stop;
            let samples = &samples;
            let mut rng = SmallRng::seed_from_u64(config.seed ^ (t as u64).wrapping_mul(0x9E37));
            scope.spawn(move || {
                let mut local_committed = 0u64;
                let mut local_attempted = 0u64;
                let mut local_samples: Vec<Duration> = Vec::new();
                // relaxed: stop/measuring flags are phase hints; an op attributed to the wrong side of a phase boundary is measurement noise, not an error.
                while !stop.load(Ordering::Relaxed) {
                    // Sample every 32nd operation's latency (cheap enough
                    // to leave on; two clock reads per 32 ops).
                    let timed = local_attempted % 32 == 0;
                    let start = timed.then(Instant::now);
                    let ok = op(t, &mut rng);
                    // relaxed: phase hint, as above.
                    if measuring.load(Ordering::Relaxed) {
                        if let Some(start) = start {
                            let d = start.elapsed();
                            if spitfire_obs::enabled() {
                                spitfire_obs::record_duration(spitfire_obs::Op::WorkloadOp, d);
                            }
                            local_samples.push(d);
                        }
                        local_attempted += 1;
                        local_committed += u64::from(ok);
                        // Flush local counts periodically so epoch sampling
                        // sees fresh numbers.
                        if local_attempted >= 64 {
                            // relaxed: throughput counters are statistics drained by the progress reporter; exact totals come after join.
                            attempted.fetch_add(local_attempted, Ordering::Relaxed);
                            committed.fetch_add(local_committed, Ordering::Relaxed);
                            local_attempted = 0;
                            local_committed = 0;
                        }
                    }
                }
                // relaxed: final flush; the scope join below synchronizes the report reads.
                attempted.fetch_add(local_attempted, Ordering::Relaxed);
                committed.fetch_add(local_committed, Ordering::Relaxed);
                samples.lock().append(&mut local_samples);
            });
        }
        // Coordinator: warm-up, then timed window.
        std::thread::sleep(config.warmup);
        measuring.store(true, Ordering::SeqCst);
        let start = Instant::now();
        std::thread::sleep(config.duration);
        measuring.store(false, Ordering::SeqCst);
        elapsed = start.elapsed();
        stop.store(true, Ordering::SeqCst);
    });

    let mut latency_samples = samples.into_inner();
    latency_samples.sort_unstable();
    RunReport {
        // relaxed: read after scope join; the join is the synchronization.
        committed: committed.load(Ordering::Relaxed),
        attempted: attempted.load(Ordering::Relaxed),
        elapsed,
        latency_samples,
    }
}

/// One epoch's sample from [`run_epochs`].
#[derive(Debug, Clone, Copy)]
pub struct EpochSample {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Committed operations during the epoch.
    pub committed: u64,
    /// Committed operations per second during the epoch.
    pub throughput: f64,
}

/// Run `op` continuously from `threads` workers while sampling throughput
/// every `epoch` duration; `on_epoch` receives each sample (the adaptive
/// tuner swaps policies there, paper §6.4). Returns all samples.
pub fn run_epochs<F, C>(
    threads: usize,
    seed: u64,
    epoch: Duration,
    n_epochs: usize,
    op: F,
    mut on_epoch: C,
) -> Vec<EpochSample>
where
    F: Fn(usize, &mut SmallRng) -> bool + Send + Sync,
    C: FnMut(EpochSample),
{
    let op = &op;
    let committed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut samples = Vec::with_capacity(n_epochs);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let committed = &committed;
            let stop = &stop;
            let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x51_7CC1));
            scope.spawn(move || {
                // relaxed: shutdown hint; one extra iteration is harmless.
                while !stop.load(Ordering::Relaxed) {
                    if op(t, &mut rng) {
                        // relaxed: throughput statistic.
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // relaxed: progress sampling reads are advisory between epochs.
        let mut last = committed.load(Ordering::Relaxed);
        for e in 0..n_epochs {
            let start = Instant::now();
            std::thread::sleep(epoch);
            // relaxed: advisory progress sample, as above.
            let now = committed.load(Ordering::Relaxed);
            let sample = EpochSample {
                epoch: e,
                committed: now - last,
                throughput: (now - last) as f64 / start.elapsed().as_secs_f64().max(1e-9),
            };
            last = now;
            on_epoch(sample);
            samples.push(sample);
        }
        stop.store(true, Ordering::SeqCst);
    });
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_workload_counts_commits_and_aborts() {
        let config = RunnerConfig {
            threads: 2,
            warmup: Duration::from_millis(20),
            duration: Duration::from_millis(100),
            seed: 1,
        };
        let calls = AtomicUsize::new(0);
        let report = run_workload(&config, |_, _| {
            // Every third call "aborts".
            calls.fetch_add(1, Ordering::Relaxed) % 3 != 0
        });
        assert!(report.committed > 0);
        assert!(report.attempted >= report.committed);
        assert!(report.abort_rate() > 0.1 && report.abort_rate() < 0.6);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn latency_quantiles_from_samples() {
        let config = RunnerConfig {
            threads: 1,
            warmup: Duration::from_millis(10),
            duration: Duration::from_millis(80),
            seed: 2,
        };
        let report = run_workload(&config, |_, _| {
            std::hint::black_box((0..50).sum::<u64>());
            true
        });
        assert!(!report.latency_samples.is_empty());
        let p50 = report.latency_quantile(0.5).unwrap();
        let p99 = report.latency_quantile(0.99).unwrap();
        assert!(p99 >= p50);
        assert!(report.latency_quantile(0.0).unwrap() <= p50);
        // Sorted invariant.
        assert!(report.latency_samples.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn run_epochs_samples_every_epoch() {
        let mut seen = Vec::new();
        let samples = run_epochs(
            1,
            7,
            Duration::from_millis(30),
            4,
            |_, _| true,
            |s| seen.push(s.epoch),
        );
        assert_eq!(samples.len(), 4);
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(samples.iter().all(|s| s.throughput > 0.0));
    }
}
