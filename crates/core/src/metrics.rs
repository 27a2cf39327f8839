//! Buffer manager metrics: tier hits, migration-path counters, and the
//! inclusivity ratio (paper §3.3, Table 2).
//!
//! Every scalar counter is declared once, in the `buffer_counters!` list
//! below. The list generates the storage field, the `record_*` bump
//! method, the public [`MetricsSnapshot`] field, and that counter's part of
//! `snapshot`, `reset`, `delta` and the exported name
//! ([`MetricsSnapshot::for_each_counter`]). Adding a counter is one list
//! entry plus the call that bumps it.

use spitfire_sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use spitfire_sync::StripedCounter;

use crate::types::MigrationPath;

/// Which shadow-copy migration path an abort or commit happened on.
/// Per-path rates matter because the paths fail for different reasons:
/// promotions race foreground writes, evictions race late readers, and
/// flushes race re-dirtying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowPath {
    /// Upward migration (SSD/NVM → DRAM, or SSD → NVM admission).
    Promote,
    /// Downward eviction (DRAM → NVM/SSD, NVM → SSD).
    Evict,
    /// Dirty DRAM write-back that leaves the page resident (a checkpoint's
    /// home flush or a single-page `flush_page`).
    Flush,
}

impl ShadowPath {
    /// Every path, in discriminant order (indexes the per-path counters).
    pub const ALL: [ShadowPath; 3] = [ShadowPath::Promote, ShadowPath::Evict, ShadowPath::Flush];

    /// Stable lowercase name (used in exported metric names).
    pub fn name(self) -> &'static str {
        match self {
            ShadowPath::Promote => "promote",
            ShadowPath::Evict => "evict",
            ShadowPath::Flush => "flush",
        }
    }
}

fn path_index(path: MigrationPath) -> usize {
    MigrationPath::ALL
        .iter()
        .position(|p| *p == path)
        .expect("MigrationPath::ALL contains every variant")
}

/// Storage behind one counter. The counters bumped on every lock-free
/// buffer hit are [`StripedCounter`]s: a single shared `AtomicU64`
/// incremented by every fetch serializes the whole hit path on one cache
/// line once thread counts climb. Everything on colder paths is a plain
/// atomic.
trait Cell {
    /// Bump a monotone statistics counter.
    fn add(&self, n: u64);
    /// Read it (point-in-time, no cross-counter consistency).
    fn get(&self) -> u64;
    /// Zero it; racing bumps may survive by design.
    fn zero(&self);
}

impl Cell for StripedCounter {
    #[inline]
    fn add(&self, n: u64) {
        StripedCounter::add(self, n);
    }
    fn get(&self) -> u64 {
        self.sum()
    }
    fn zero(&self) {
        self.reset();
    }
}

// relaxed: every plain-atomic counter in this file is a monotone
// statistic read only by `snapshot`/probe methods; counters publish no
// other memory, so no ordering is needed (striped counters make the
// identical argument in `spitfire_sync::padded`).
impl Cell for AtomicU64 {
    #[inline]
    fn add(&self, n: u64) {
        // relaxed: see the impl comment.
        self.fetch_add(n, Ordering::Relaxed);
    }
    fn get(&self) -> u64 {
        // relaxed: see the impl comment.
        self.load(Ordering::Relaxed)
    }
    fn zero(&self) {
        // relaxed: see the impl comment.
        self.store(0, Ordering::Relaxed);
    }
}

fn get_all<const N: usize>(cells: &[AtomicU64; N]) -> [u64; N] {
    std::array::from_fn(|i| cells[i].get())
}

fn sub_all<const N: usize>(later: &[u64; N], earlier: &[u64; N]) -> [u64; N] {
    std::array::from_fn(|i| later[i] - earlier[i])
}

/// The amount a generated `record_*` adds: its argument, or one.
macro_rules! bump_by {
    () => {
        1
    };
    ($n:ident) => {
        $n
    };
}

/// Declares every scalar counter: `doc, field: storage => record_fn(arg?)`.
/// The three per-path families (`migrations`, `shadow_aborts`,
/// `shadow_commits`) are arrays and are spelled out in the expansion.
macro_rules! buffer_counters {
    ($(
        $(#[$doc:meta])*
        $field:ident: $cell:ty $(=> $record:ident($($n:ident)?))?;
    )*) => {
        /// Thread-safe counters maintained by the buffer manager.
        #[derive(Debug, Default)]
        pub struct BufferMetrics {
            $($field: $cell,)*
            migrations: [AtomicU64; MigrationPath::ALL.len()],
            shadow_aborts: [AtomicU64; ShadowPath::ALL.len()],
            shadow_commits: [AtomicU64; ShadowPath::ALL.len()],
        }

        /// Immutable copy of [`BufferMetrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
            /// Migration counts indexed like [`MigrationPath::ALL`].
            pub migrations: [u64; 6],
            /// Shadow aborts by path, indexed like [`ShadowPath::ALL`]
            /// (promote, evict, flush). Sums to `migrations_aborted`.
            pub shadow_aborts: [u64; 3],
            /// Shadow commits by path, indexed like [`ShadowPath::ALL`]:
            /// the success-side denominator of the per-path abort rates.
            pub shadow_commits: [u64; 3],
        }

        impl BufferMetrics {
            $($(
                #[doc = concat!("Bump [`MetricsSnapshot::", stringify!($field), "`].")]
                pub fn $record(&self $(, $n: u64)?) {
                    self.$field.add(bump_by!($($n)?));
                }
            )?)*

            /// Point-in-time copy of all counters.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.$field.get(),)*
                    migrations: get_all(&self.migrations),
                    shadow_aborts: get_all(&self.shadow_aborts),
                    shadow_commits: get_all(&self.shadow_commits),
                }
            }

            /// Reset all counters (between experiment phases).
            pub fn reset(&self) {
                $(self.$field.zero();)*
                let families = self.migrations.iter();
                for c in families.chain(&self.shadow_aborts).chain(&self.shadow_commits) {
                    c.zero();
                }
            }
        }

        impl MetricsSnapshot {
            /// Difference between two snapshots (`self` taken after
            /// `earlier`).
            pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.$field - earlier.$field,)*
                    migrations: sub_all(&self.migrations, &earlier.migrations),
                    shadow_aborts: sub_all(&self.shadow_aborts, &earlier.shadow_aborts),
                    shadow_commits: sub_all(&self.shadow_commits, &earlier.shadow_commits),
                }
            }

            /// Visit every counter as `(exported name, value)`: scalars
            /// under their field name, then `migrations_<src>_to_<dst>`
            /// and `shadow_{aborts,commits}_<path>`.
            pub fn for_each_counter(&self, mut f: impl FnMut(&str, u64)) {
                $(f(stringify!($field), self.$field);)*
                for path in MigrationPath::ALL {
                    let label = path.label().replace("->", "_to_");
                    f(&format!("migrations_{label}"), self.path(path));
                }
                for path in ShadowPath::ALL {
                    let name = path.name();
                    f(&format!("shadow_aborts_{name}"), self.shadow_aborts[path as usize]);
                    f(&format!("shadow_commits_{name}"), self.shadow_commits[path as usize]);
                }
            }
        }
    };
}

buffer_counters! {
    /// Requests served from the DRAM buffer.
    dram_hits: StripedCounter => record_dram_hit();
    /// Requests served from the NVM buffer (directly, without promotion).
    nvm_hits: StripedCounter => record_nvm_hit();
    /// Requests that had to go to SSD.
    ssd_fetches: AtomicU64 => record_ssd_fetch();
    /// Evictions from the DRAM buffer.
    evictions_dram: AtomicU64 => record_dram_eviction();
    /// Evictions from the NVM buffer.
    evictions_nvm: AtomicU64 => record_nvm_eviction();
    /// Clean DRAM pages discarded on eviction (§3.3).
    discards: AtomicU64 => record_discard();
    /// Copies dropped from either buffer tier with only hint dirt, without
    /// writing them to SSD (their hint writes are lost by design).
    hint_discards: AtomicU64 => record_hint_discard();
    /// NVM copies a home flush dropped: a dirty DRAM copy went to its SSD
    /// home, so the older NVM copy it shadowed lost its header and frame.
    nvm_home_drops: AtomicU64 => record_nvm_home_drop();
    /// Device operations retried after a transient I/O error.
    io_retries: AtomicU64 => record_io_retry();
    /// Device operations that failed fatally (injected fatal fault or
    /// retry budget exhausted).
    io_fatal: AtomicU64 => record_io_fatal();
    /// Fetches served lock-free by the optimistic pin fast path.
    fetch_fast: StripedCounter => record_fetch_fast();
    /// Fetches that fell back to the descriptor-mutex slow path (miss,
    /// closed pin word, promotion draw, or optimistic restart).
    fetch_fallbacks: StripedCounter => record_fetch_fallback();
    /// Optimistic pin attempts that observed a closed or concurrently
    /// transitioning pin word and restarted into the slow path.
    pin_restarts: StripedCounter => record_pin_restart();
    /// Fetch misses that found no free frame and ran eviction inline
    /// because maintenance workers had not kept up with the watermark.
    backpressure_fallbacks: AtomicU64 => record_backpressure_fallback();
    /// Maintenance cycles executed (worker wake-ups and manual ticks).
    maint_cycles: AtomicU64 => record_maint_cycle();
    /// Frames freed by maintenance pre-eviction (both tiers).
    maint_evictions: AtomicU64 => record_maint_evictions(n);
    /// Dirty pages written back by maintenance in batches.
    maint_writebacks: AtomicU64 => record_maint_writebacks(n);
    /// Shadow-copy migrations aborted at commit because a concurrent write
    /// (or an undrained reader) invalidated the copy; the source copy
    /// stayed authoritative and the operation was retried or degraded.
    /// Bumped by [`BufferMetrics::record_shadow_abort`].
    migrations_aborted: AtomicU64;
}

impl BufferMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a page migration along `path`.
    pub fn record_migration(&self, path: MigrationPath) {
        self.migrations[path_index(path)].add(1);
    }

    /// Record a shadow-copy migration aborted at commit on `path` (also
    /// bumps the path-agnostic `migrations_aborted` total).
    pub fn record_shadow_abort(&self, path: ShadowPath) {
        self.migrations_aborted.add(1);
        self.shadow_aborts[path as usize].add(1);
    }

    /// Record a shadow-copy migration that committed on `path`.
    pub fn record_shadow_commit(&self, path: ShadowPath) {
        self.shadow_commits[path as usize].add(1);
    }

    /// Current backpressure-fallback count (single relaxed load; the
    /// admission-control pressure probe reads this on every decision).
    pub fn backpressure_fallbacks(&self) -> u64 {
        self.backpressure_fallbacks.get()
    }
}

impl MetricsSnapshot {
    /// Count for one migration path.
    pub fn path(&self, path: MigrationPath) -> u64 {
        self.migrations[path_index(path)]
    }

    /// Shadow abort rate for one path: aborts / (aborts + commits), or 0
    /// when the path never ran.
    pub fn shadow_abort_rate(&self, path: ShadowPath) -> f64 {
        let a = self.shadow_aborts[path as usize];
        let total = a + self.shadow_commits[path as usize];
        if total == 0 {
            return 0.0;
        }
        a as f64 / total as f64
    }

    /// Total buffer requests observed.
    pub fn total_requests(&self) -> u64 {
        self.dram_hits + self.nvm_hits + self.ssd_fetches
    }

    /// Fraction of requests served without touching SSD.
    pub fn buffer_hit_ratio(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            return 0.0;
        }
        (self.dram_hits + self.nvm_hits) as f64 / total as f64
    }
}

/// The inclusivity ratio of the DRAM and NVM buffers (paper §3.3):
/// `|DRAM ∩ NVM| / |DRAM ∪ NVM|`. Lower non-zero values mean less wasted
/// duplicate capacity (Table 2).
pub fn inclusivity_ratio(in_both: usize, in_either: usize) -> f64 {
    if in_either == 0 {
        return 0.0;
    }
    in_both as f64 / in_either as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_snapshot() {
        let m = BufferMetrics::new();
        m.record_dram_hit();
        m.record_dram_hit();
        m.record_nvm_hit();
        m.record_ssd_fetch();
        m.record_migration(MigrationPath::SsdToDram);
        m.record_migration(MigrationPath::SsdToDram);
        m.record_migration(MigrationPath::NvmToDram);
        m.record_dram_eviction();
        m.record_discard();
        let s = m.snapshot();
        assert_eq!(s.dram_hits, 2);
        assert_eq!(s.nvm_hits, 1);
        assert_eq!(s.ssd_fetches, 1);
        assert_eq!(s.path(MigrationPath::SsdToDram), 2);
        assert_eq!(s.path(MigrationPath::NvmToDram), 1);
        assert_eq!(s.path(MigrationPath::DramToSsd), 0);
        assert_eq!(s.total_requests(), 4);
        assert!((s.buffer_hit_ratio() - 0.75).abs() < 1e-12);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn hit_ratio_of_empty_is_zero() {
        assert_eq!(MetricsSnapshot::default().buffer_hit_ratio(), 0.0);
    }

    #[test]
    fn delta_subtracts() {
        let m = BufferMetrics::new();
        m.record_dram_hit();
        let a = m.snapshot();
        m.record_dram_hit();
        m.record_migration(MigrationPath::DramToNvm);
        let b = m.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.dram_hits, 1);
        assert_eq!(d.path(MigrationPath::DramToNvm), 1);
    }

    #[test]
    fn shadow_paths_split_the_abort_total() {
        let m = BufferMetrics::new();
        m.record_shadow_abort(ShadowPath::Promote);
        m.record_shadow_abort(ShadowPath::Evict);
        m.record_shadow_abort(ShadowPath::Evict);
        m.record_shadow_commit(ShadowPath::Evict);
        m.record_shadow_commit(ShadowPath::Flush);
        let s = m.snapshot();
        assert_eq!(s.migrations_aborted, 3);
        assert_eq!(s.shadow_aborts, [1, 2, 0]);
        assert_eq!(s.shadow_commits, [0, 1, 1]);
        assert!((s.shadow_abort_rate(ShadowPath::Evict) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.shadow_abort_rate(ShadowPath::Flush), 0.0);
        // A path that never ran reports rate 0, not NaN.
        let empty = MetricsSnapshot::default();
        assert_eq!(empty.shadow_abort_rate(ShadowPath::Promote), 0.0);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn inclusivity_matches_definition() {
        assert_eq!(inclusivity_ratio(0, 0), 0.0);
        assert_eq!(inclusivity_ratio(0, 10), 0.0);
        assert!((inclusivity_ratio(5, 20) - 0.25).abs() < 1e-12);
        assert_eq!(inclusivity_ratio(10, 10), 1.0);
    }
}
