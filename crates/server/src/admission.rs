//! Admission control: bounded queues, memory-pressure shedding, and
//! per-tenant token-bucket quotas.
//!
//! Every request passes [`Admission::admit`] *before* it is queued or run
//! inline, on the connection's reader thread. The checks, in order:
//!
//! 1. **Per-connection queue bound** — a slow or flooding connection may
//!    buffer at most `per_conn_queue` requests; beyond that it is shed
//!    with [`ErrorCode::Overload`] instead of growing memory.
//! 2. **Global in-flight bound** — the sum of queued-or-executing
//!    requests across all connections is capped, so total server memory
//!    for request state is bounded no matter how many connections exist.
//! 3. **Memory pressure** — a monitor thread samples
//!    [`BufferManager::pressure`](spitfire_core::BufferManager::pressure)
//!    and raises [`Admission::set_pressure`] while free frames sit below
//!    the maintenance low watermark or `backpressure_fallbacks` is
//!    climbing; while raised, *new* work is shed.
//! 4. **Tenant quota** — a token bucket per tenant caps its admitted
//!    op rate ([`ErrorCode::RateLimited`]); the refill rate is the quota,
//!    the burst is one second's worth.
//!
//! Finishing commands (COMMIT / ABORT / STATS / SHUTDOWN) skip checks 2–4:
//! shedding a commit would strand an open transaction and its pending
//! versions, making overload *worse*. All shed replies are retryable by
//! construction — clients back off and resend, mirroring
//! [`TxnError::is_retryable`](spitfire_txn::TxnError::is_retryable).

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::protocol::ErrorCode;

/// Per-tenant admission configuration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Weight in the fair scheduler's deficit round-robin (≥ 1).
    pub weight: u32,
    /// Admitted-operation quota in ops/s; `None` = unlimited.
    pub quota_ops_per_sec: Option<f64>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            quota_ops_per_sec: None,
        }
    }
}

/// Server-wide admission configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Per-connection request-queue bound.
    pub per_conn_queue: usize,
    /// Global bound on queued-or-executing requests.
    pub global_inflight: usize,
    /// Whether the memory-pressure monitor may shed new work.
    pub pressure_shedding: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            per_conn_queue: 32,
            global_inflight: 4096,
            pressure_shedding: true,
        }
    }
}

/// Classic token bucket; capacity is one second's worth of quota.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    capacity: f64,
    rate: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: f64) -> Self {
        let capacity = rate.max(1.0);
        TokenBucket {
            tokens: capacity,
            capacity,
            rate,
            last: Instant::now(),
        }
    }

    fn try_take(&mut self, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Per-tenant admission state and counters.
#[derive(Debug)]
pub struct TenantState {
    /// Scheduler weight.
    pub weight: u32,
    bucket: Option<Mutex<TokenBucket>>,
    /// Requests admitted past all checks.
    pub admitted: AtomicU64,
    /// Requests shed on the per-connection or global queue bounds.
    pub shed_queue: AtomicU64,
    /// Requests shed while the buffer manager reported memory pressure.
    pub shed_pressure: AtomicU64,
    /// Requests shed by the tenant's token bucket.
    pub shed_quota: AtomicU64,
    /// Operations completed successfully.
    pub ok_ops: AtomicU64,
    /// Operations completed with an error reply.
    pub err_ops: AtomicU64,
}

impl TenantState {
    fn new(cfg: &TenantConfig) -> Self {
        TenantState {
            weight: cfg.weight.max(1),
            bucket: cfg
                .quota_ops_per_sec
                .filter(|r| r.is_finite() && *r > 0.0)
                .map(|r| Mutex::new(TokenBucket::new(r))),
            admitted: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_pressure: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            ok_ops: AtomicU64::new(0),
            err_ops: AtomicU64::new(0),
        }
    }

    /// Total sheds across all causes.
    pub fn shed_total(&self) -> u64 {
        // relaxed: advisory statistics; the sum may tear across concurrent sheds, which a monitoring probe tolerates.
        self.shed_queue.load(Ordering::Relaxed)
            + self.shed_pressure.load(Ordering::Relaxed)
            + self.shed_quota.load(Ordering::Relaxed)
    }
}

/// Admission state: in-flight count, the pressure flag, and every
/// tenant's counters as `tenant<N>_<counter>`.
impl spitfire_obs::Source for Admission {
    fn report(&self, out: &mut spitfire_obs::Report) {
        out.add_gauge("server_inflight", self.inflight() as f64);
        out.add_gauge(
            "server_under_pressure",
            f64::from(u8::from(self.under_pressure())),
        );
        for (i, t) in self.tenants.iter().enumerate() {
            out.add_gauge(format!("tenant{i}_weight"), f64::from(t.weight));
            for (name, counter) in [
                ("admitted", &t.admitted),
                ("shed_queue", &t.shed_queue),
                ("shed_pressure", &t.shed_pressure),
                ("shed_quota", &t.shed_quota),
                ("ok_ops", &t.ok_ops),
                ("err_ops", &t.err_ops),
            ] {
                // relaxed: advisory per-tenant statistics.
                out.add_counter(format!("tenant{i}_{name}"), counter.load(Ordering::Relaxed));
            }
        }
    }
}

/// Outcome of an admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Run or queue it. The global in-flight count has been charged; the
    /// caller must release it via [`Admission::release`] when the request
    /// finishes (or is discarded).
    Admit,
    /// Reject with a retryable typed error; nothing was charged.
    Shed(ErrorCode, &'static str),
}

/// Shared admission state (one per server).
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    tenants: Vec<TenantState>,
    /// Queued-or-executing requests, server-wide.
    inflight: AtomicUsize,
    /// Raised by the pressure monitor (0 = calm, 1 = shed new work).
    pressure: AtomicU8,
}

impl Admission {
    /// Admission state for `tenants.len()` tenants.
    pub fn new(config: AdmissionConfig, tenants: &[TenantConfig]) -> Self {
        Admission {
            config,
            tenants: tenants.iter().map(TenantState::new).collect(),
            inflight: AtomicUsize::new(0),
            pressure: AtomicU8::new(0),
        }
    }

    /// Per-tenant state (panics on unknown tenant — validate at decode).
    pub fn tenant(&self, tenant: u32) -> &TenantState {
        &self.tenants[tenant as usize]
    }

    /// All tenants, indexed by id.
    pub fn tenants(&self) -> &[TenantState] {
        &self.tenants
    }

    /// Number of configured tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Current queued-or-executing request count.
    pub fn inflight(&self) -> usize {
        // relaxed: advisory occupancy gauge; being off by in-flight transitions is fine for monitoring.
        self.inflight.load(Ordering::Relaxed)
    }

    /// Raise or clear the memory-pressure shed signal (monitor thread).
    pub fn set_pressure(&self, shed: bool) {
        // relaxed: the pressure flag is a shed hint; a late observer admits or sheds one extra request, both acceptable.
        self.pressure.store(u8::from(shed), Ordering::Relaxed);
    }

    /// Whether the pressure signal is currently raised.
    pub fn under_pressure(&self) -> bool {
        // relaxed: see `set_pressure`.
        self.pressure.load(Ordering::Relaxed) != 0
    }

    /// Decide whether to queue a request. `conn_depth` is the calling
    /// connection's current queue depth; `finishing` marks commands that
    /// complete existing work and bypass shedding.
    pub fn admit(&self, tenant: u32, finishing: bool, conn_depth: usize) -> Verdict {
        let t = &self.tenants[tenant as usize];
        if !finishing {
            if conn_depth >= self.config.per_conn_queue {
                // relaxed: shed counters are statistics; the inflight reading is an advisory gauge — admission tolerates small overshoot around the limit.
                t.shed_queue.fetch_add(1, Ordering::Relaxed);
                return Verdict::Shed(ErrorCode::Overload, "connection queue full");
            }
            if self.inflight.load(Ordering::Relaxed) >= self.config.global_inflight {
                t.shed_queue.fetch_add(1, Ordering::Relaxed);
                return Verdict::Shed(ErrorCode::Overload, "server at in-flight limit");
            }
            if self.config.pressure_shedding && self.under_pressure() {
                // relaxed: shed statistics; the token bucket itself is mutex-protected.
                t.shed_pressure.fetch_add(1, Ordering::Relaxed);
                return Verdict::Shed(ErrorCode::Overload, "buffer memory pressure");
            }
            if let Some(bucket) = &t.bucket {
                if !bucket.lock().try_take(Instant::now()) {
                    t.shed_quota.fetch_add(1, Ordering::Relaxed);
                    return Verdict::Shed(ErrorCode::RateLimited, "tenant quota exhausted");
                }
            }
        }
        // relaxed: admission statistic plus the advisory inflight gauge (see above).
        t.admitted.fetch_add(1, Ordering::Relaxed);
        self.inflight.fetch_add(1, Ordering::Relaxed);
        Verdict::Admit
    }

    /// Release one admitted request (completed, or discarded on
    /// disconnect).
    pub fn release(&self) {
        // relaxed: advisory gauge decrement; no memory is published through it.
        let prev = self.inflight.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "release without admit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn two_tenants(quota: Option<f64>) -> Admission {
        Admission::new(
            AdmissionConfig {
                per_conn_queue: 4,
                global_inflight: 8,
                pressure_shedding: true,
            },
            &[
                TenantConfig {
                    weight: 4,
                    quota_ops_per_sec: quota,
                },
                TenantConfig::default(),
            ],
        )
    }

    #[test]
    fn queue_bounds_shed() {
        let a = two_tenants(None);
        assert_eq!(a.admit(0, false, 0), Verdict::Admit);
        assert!(matches!(
            a.admit(0, false, 4),
            Verdict::Shed(ErrorCode::Overload, _)
        ));
        // Global limit: 1 already in flight, admit 7 more, the 9th sheds.
        for _ in 0..7 {
            assert_eq!(a.admit(1, false, 0), Verdict::Admit);
        }
        assert!(matches!(
            a.admit(1, false, 0),
            Verdict::Shed(ErrorCode::Overload, _)
        ));
        // Finishing commands bypass the global bound.
        assert_eq!(a.admit(1, true, 0), Verdict::Admit);
        for _ in 0..9 {
            a.release();
        }
        assert_eq!(a.inflight(), 0);
        assert_eq!(a.tenant(1).shed_queue.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pressure_sheds_new_work_only() {
        let a = two_tenants(None);
        a.set_pressure(true);
        assert!(matches!(
            a.admit(0, false, 0),
            Verdict::Shed(ErrorCode::Overload, "buffer memory pressure")
        ));
        assert_eq!(a.admit(0, true, 0), Verdict::Admit);
        a.release();
        a.set_pressure(false);
        assert_eq!(a.admit(0, false, 0), Verdict::Admit);
        a.release();
        assert_eq!(a.tenant(0).shed_pressure.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn token_bucket_caps_rate_and_refills() {
        let a = two_tenants(Some(50.0));
        // Burst capacity = one second's quota.
        let mut admitted = 0;
        for _ in 0..200 {
            if a.admit(0, false, 0) == Verdict::Admit {
                admitted += 1;
                a.release();
            }
        }
        assert!(admitted <= 51, "burst {admitted} exceeds bucket");
        assert!(a.tenant(0).shed_quota.load(Ordering::Relaxed) > 0);
        // Refill: after 100ms, ~5 more tokens.
        std::thread::sleep(Duration::from_millis(100));
        let mut refilled = 0;
        for _ in 0..50 {
            if a.admit(0, false, 0) == Verdict::Admit {
                refilled += 1;
                a.release();
            }
        }
        assert!(refilled >= 1, "bucket never refilled");
        assert!(refilled <= 20, "refill {refilled} too generous");
        // The unlimited tenant is untouched by tenant 0's bucket.
        assert_eq!(a.admit(1, false, 0), Verdict::Admit);
        a.release();
    }
}
