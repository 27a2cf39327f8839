//! Deterministic fault-injection plane for the emulated devices.
//!
//! A [`FaultPlan`] is a seeded list of [`FaultRule`]s. Compiling it into a
//! [`FaultInjector`] and attaching that injector to a device (see
//! `set_fault_injector` on [`crate::DramDevice`], [`crate::NvmDevice`] and
//! [`crate::SsdDevice`]) makes every read/write/flush path consult
//! [`FaultInjector::decide`] before touching the backing store. Rules can
//! inject transient or fatal I/O errors, latency spikes, torn writes at
//! [`MEDIA_BLOCK`] granularity, and silently-dropped flushes, triggered by
//! seeded-RNG probability, nth-op counters, or device/op/offset predicates.
//!
//! Determinism contract: each rule owns its own splitmix64 stream derived
//! from the plan seed, and its own match counter. A single-threaded caller
//! issuing the same operation sequence against two injectors built from the
//! same plan observes byte-identical fault sequences.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spitfire_obs::{record_since, Op};

use crate::error::DeviceError;
use crate::profile::DeviceKind;

/// NVM media write granularity: torn writes persist a prefix of complete
/// 256 B blocks (§5 of the paper models persistence at cache-line/media
/// granularity; 256 B matches Optane's internal write unit).
pub const MEDIA_BLOCK: usize = 256;

/// The device entry points the injector can intercept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// A read (`DramDevice::read`, `NvmDevice::read`, `SsdDevice::read_page`).
    Read,
    /// A write (`write`, `write_page`, `append_page`).
    Write,
    /// An `NvmDevice::clwb` cache-line write-back.
    Clwb,
    /// An `NvmDevice::sfence` persistence barrier.
    Sfence,
    /// An `SsdDevice::sync` durability barrier.
    Sync,
}

impl FaultOp {
    /// Stable lowercase label for logs and error messages.
    pub const fn label(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Clwb => "clwb",
            FaultOp::Sfence => "sfence",
            FaultOp::Sync => "sync",
        }
    }
}

/// What a firing rule does to the intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail with [`DeviceError::InjectedTransient`] (retryable).
    Transient,
    /// Fail with [`DeviceError::InjectedFatal`] (not retryable).
    Fatal,
    /// Sleep the given number of microseconds, then proceed normally.
    LatencyUs(u64),
    /// Persist only a prefix of complete [`MEDIA_BLOCK`]s of the write;
    /// the tail is lost without any error being reported.
    TornWrite,
    /// Silently skip the flush/fence/sync; the caller sees success but
    /// nothing was made durable.
    DropFlush,
}

/// When a matching rule actually fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on each match with this probability, drawn from the rule's
    /// seeded RNG stream (clamped to `[0, 1]`).
    Probability(f64),
    /// Fire exactly once, on the nth match (1-based).
    NthOp(u64),
    /// Fire on every nth match (1-based: n, 2n, 3n, ...).
    EveryNth(u64),
    /// Fire on every match.
    Always,
}

/// One fault rule: predicates (device, ops, offset range) + trigger + kind.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Restrict to one device kind (`None` = any device).
    pub device: Option<DeviceKind>,
    /// Restrict to these entry points (empty = any op).
    pub ops: Vec<FaultOp>,
    /// Restrict to operations whose byte offset lies in `[lo, hi)`.
    /// For `SsdDevice` page ops the offset is `page_id * page_size`.
    pub offset_range: Option<(u64, u64)>,
    /// When a matching operation fires the fault.
    pub trigger: Trigger,
    /// What happens when it fires.
    pub kind: FaultKind,
}

impl FaultRule {
    /// A rule matching every operation on every device.
    pub fn any(trigger: Trigger, kind: FaultKind) -> Self {
        FaultRule {
            device: None,
            ops: Vec::new(),
            offset_range: None,
            trigger,
            kind,
        }
    }

    /// Restrict the rule to one device kind.
    #[must_use]
    pub fn on_device(mut self, device: DeviceKind) -> Self {
        self.device = Some(device);
        self
    }

    /// Restrict the rule to one entry point (may be chained).
    #[must_use]
    pub fn on_op(mut self, op: FaultOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Restrict the rule to byte offsets in `[lo, hi)`.
    #[must_use]
    pub fn in_range(mut self, lo: u64, hi: u64) -> Self {
        self.offset_range = Some((lo, hi));
        self
    }

    fn matches(&self, device: DeviceKind, op: FaultOp, offset: u64) -> bool {
        if self.device.is_some_and(|d| d != device) {
            return false;
        }
        if !self.ops.is_empty() && !self.ops.contains(&op) {
            return false;
        }
        if let Some((lo, hi)) = self.offset_range {
            if offset < lo || offset >= hi {
                return false;
            }
        }
        true
    }
}

/// A seeded, declarative fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-rule RNG streams.
    pub seed: u64,
    /// Rules, checked in order; the first one that fires wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule.
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// Monotonic counters describing what an injector has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations that matched some rule's predicates.
    pub matched: u64,
    /// Faults actually fired (sum of the per-kind counters below).
    pub injected: u64,
    /// Transient errors injected.
    pub transient: u64,
    /// Fatal errors injected.
    pub fatal: u64,
    /// Latency spikes injected.
    pub latency: u64,
    /// Torn writes injected.
    pub torn: u64,
    /// Flushes/fences/syncs silently dropped.
    pub dropped_flush: u64,
}

/// Verdict of [`FaultInjector::decide`] for one intercepted operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// No fault: perform the operation normally.
    Proceed,
    /// Fail the operation with this error.
    Fail(DeviceError),
    /// Perform only the first `keep` bytes of the write (torn write);
    /// report success to the caller.
    Truncate(usize),
    /// Skip the flush/fence/sync entirely; report success to the caller.
    Drop,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 output function over an already-advanced state word.
fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct RuleState {
    rule: FaultRule,
    /// Matches seen so far (1-based op index for Nth/EveryNth triggers).
    matched: AtomicU64,
    /// splitmix64 state for this rule's private random stream.
    rng: AtomicU64,
}

impl RuleState {
    fn next_u64(&self) -> u64 {
        let state = self
            .rng
            // relaxed: RNG state needs atomicity only; any interleaving of draws is an equally valid random sequence.
            .fetch_add(GOLDEN, Ordering::Relaxed)
            .wrapping_add(GOLDEN);
        splitmix64(state)
    }

    fn next_f64(&self) -> f64 {
        // 53 random bits → uniform in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Compiled, thread-safe form of a [`FaultPlan`], attachable to devices.
pub struct FaultInjector {
    rules: Vec<RuleState>,
    matched: AtomicU64,
    transient: AtomicU64,
    fatal: AtomicU64,
    latency: AtomicU64,
    torn: AtomicU64,
    dropped_flush: AtomicU64,
}

impl FaultInjector {
    /// Compile a plan: rule `i` gets an independent stream seeded from
    /// `plan.seed` and its index.
    pub fn new(plan: FaultPlan) -> Self {
        let rules = plan
            .rules
            .into_iter()
            .enumerate()
            .map(|(i, rule)| RuleState {
                rule,
                matched: AtomicU64::new(0),
                rng: AtomicU64::new(splitmix64(
                    plan.seed.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN)),
                )),
            })
            .collect();
        FaultInjector {
            rules,
            matched: AtomicU64::new(0),
            transient: AtomicU64::new(0),
            fatal: AtomicU64::new(0),
            latency: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            dropped_flush: AtomicU64::new(0),
        }
    }

    /// Snapshot the fault counters.
    pub fn stats(&self) -> FaultStats {
        // relaxed: advisory snapshot of fault statistics counters.
        let transient = self.transient.load(Ordering::Relaxed);
        let fatal = self.fatal.load(Ordering::Relaxed);
        let latency = self.latency.load(Ordering::Relaxed);
        let torn = self.torn.load(Ordering::Relaxed);
        let dropped_flush = self.dropped_flush.load(Ordering::Relaxed);
        FaultStats {
            matched: self.matched.load(Ordering::Relaxed),
            injected: transient + fatal + latency + torn + dropped_flush,
            transient,
            fatal,
            latency,
            torn,
            dropped_flush,
        }
    }

    /// Decide the fate of one intercepted operation. The first rule whose
    /// predicates match *and* whose trigger fires wins; latency spikes are
    /// applied here (the caller just proceeds).
    pub fn decide(&self, device: DeviceKind, op: FaultOp, offset: u64, len: usize) -> Outcome {
        for rs in &self.rules {
            if !rs.rule.matches(device, op, offset) {
                continue;
            }
            // relaxed: fault statistics counters; no ordering needed.
            self.matched.fetch_add(1, Ordering::Relaxed);
            let nth = rs.matched.fetch_add(1, Ordering::Relaxed) + 1;
            let fires = match rs.rule.trigger {
                Trigger::Probability(p) => rs.next_f64() < p,
                Trigger::NthOp(n) => nth == n,
                Trigger::EveryNth(n) => n > 0 && nth % n == 0,
                Trigger::Always => true,
            };
            if !fires {
                continue;
            }
            Self::note();
            match rs.rule.kind {
                FaultKind::Transient => {
                    // relaxed: fault statistics counter.
                    self.transient.fetch_add(1, Ordering::Relaxed);
                    return Outcome::Fail(DeviceError::InjectedTransient { op: op.label() });
                }
                FaultKind::Fatal => {
                    // relaxed: fault statistics counter.
                    self.fatal.fetch_add(1, Ordering::Relaxed);
                    return Outcome::Fail(DeviceError::InjectedFatal { op: op.label() });
                }
                FaultKind::LatencyUs(us) => {
                    // relaxed: fault statistics counter.
                    self.latency.fetch_add(1, Ordering::Relaxed);
                    if us > 0 {
                        std::thread::sleep(Duration::from_micros(us));
                    }
                    return Outcome::Proceed;
                }
                FaultKind::TornWrite => {
                    // relaxed: fault statistics counter.
                    self.torn.fetch_add(1, Ordering::Relaxed);
                    let blocks = len.div_ceil(MEDIA_BLOCK).max(1);
                    let surviving = (rs.next_u64() % blocks as u64) as usize;
                    return Outcome::Truncate(len.min(surviving * MEDIA_BLOCK));
                }
                FaultKind::DropFlush => {
                    // relaxed: fault statistics counter.
                    self.dropped_flush.fetch_add(1, Ordering::Relaxed);
                    return Outcome::Drop;
                }
            }
        }
        Outcome::Proceed
    }

    /// Best-effort obs breadcrumb: a `fault_injected` histogram tick. The
    /// authoritative fault counts live in [`FaultInjector::stats`].
    fn note() {
        record_since(Op::FaultInjected, Some(Instant::now()));
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("rules", &self.rules.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(inj: &FaultInjector, n: usize) -> Vec<Outcome> {
        (0..n)
            .map(|i| inj.decide(DeviceKind::Nvm, FaultOp::Write, (i * 64) as u64, 64))
            .collect()
    }

    #[test]
    fn same_plan_same_seed_same_outcomes() {
        let plan = FaultPlan::new(42).rule(FaultRule::any(
            Trigger::Probability(0.25),
            FaultKind::Transient,
        ));
        let a = drive(&FaultInjector::new(plan.clone()), 512);
        let b = drive(&FaultInjector::new(plan.clone()), 512);
        assert_eq!(a, b);
        let fired = a.iter().filter(|o| **o != Outcome::Proceed).count();
        assert!(
            fired > 64 && fired < 256,
            "p=0.25 over 512 ops, got {fired}"
        );
        // A different seed produces a different schedule.
        let c = drive(&FaultInjector::new(FaultPlan { seed: 43, ..plan }), 512);
        assert_ne!(a, c);
    }

    #[test]
    fn nth_op_fires_exactly_once() {
        let inj = FaultInjector::new(
            FaultPlan::new(1).rule(FaultRule::any(Trigger::NthOp(3), FaultKind::Fatal)),
        );
        let outs = drive(&inj, 8);
        for (i, o) in outs.iter().enumerate() {
            if i == 2 {
                assert!(matches!(
                    o,
                    Outcome::Fail(DeviceError::InjectedFatal { .. })
                ));
            } else {
                assert_eq!(*o, Outcome::Proceed);
            }
        }
        assert_eq!(inj.stats().fatal, 1);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let inj = FaultInjector::new(
            FaultPlan::new(1).rule(FaultRule::any(Trigger::EveryNth(4), FaultKind::Transient)),
        );
        let outs = drive(&inj, 12);
        let fired: Vec<usize> = outs
            .iter()
            .enumerate()
            .filter(|(_, o)| **o != Outcome::Proceed)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fired, vec![3, 7, 11]);
    }

    #[test]
    fn predicates_filter_device_op_and_offset() {
        let inj = FaultInjector::new(
            FaultPlan::new(7).rule(
                FaultRule::any(Trigger::Always, FaultKind::Transient)
                    .on_device(DeviceKind::Ssd)
                    .on_op(FaultOp::Read)
                    .in_range(4096, 8192),
            ),
        );
        // Wrong device, wrong op, wrong offset: all proceed.
        assert_eq!(
            inj.decide(DeviceKind::Nvm, FaultOp::Read, 4096, 64),
            Outcome::Proceed
        );
        assert_eq!(
            inj.decide(DeviceKind::Ssd, FaultOp::Write, 4096, 64),
            Outcome::Proceed
        );
        assert_eq!(
            inj.decide(DeviceKind::Ssd, FaultOp::Read, 8192, 64),
            Outcome::Proceed
        );
        assert_eq!(inj.stats().matched, 0);
        // Exact match fails.
        assert!(matches!(
            inj.decide(DeviceKind::Ssd, FaultOp::Read, 4096, 64),
            Outcome::Fail(DeviceError::InjectedTransient { op: "read" })
        ));
    }

    #[test]
    fn torn_write_keeps_whole_media_blocks() {
        let inj = FaultInjector::new(
            FaultPlan::new(99).rule(FaultRule::any(Trigger::Always, FaultKind::TornWrite)),
        );
        for _ in 0..64 {
            match inj.decide(DeviceKind::Ssd, FaultOp::Write, 0, 4096) {
                Outcome::Truncate(keep) => {
                    assert!(keep < 4096);
                    assert_eq!(keep % MEDIA_BLOCK, 0);
                }
                other => panic!("expected Truncate, got {other:?}"),
            }
        }
        assert_eq!(inj.stats().torn, 64);
    }

    #[test]
    fn drop_flush_and_first_matching_rule_wins() {
        let inj = FaultInjector::new(
            FaultPlan::new(5)
                .rule(FaultRule::any(Trigger::Always, FaultKind::DropFlush).on_op(FaultOp::Sfence))
                .rule(FaultRule::any(Trigger::Always, FaultKind::Fatal).on_op(FaultOp::Sfence)),
        );
        assert_eq!(
            inj.decide(DeviceKind::Nvm, FaultOp::Sfence, 0, 0),
            Outcome::Drop
        );
        let s = inj.stats();
        assert_eq!((s.dropped_flush, s.fatal), (1, 0));
    }
}
