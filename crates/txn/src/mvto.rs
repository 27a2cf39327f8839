//! Multi-version timestamp ordering (MVTO) primitives (paper §5.2 \[39\]).
//!
//! Each transaction receives one timestamp at begin. A version is a
//! half-open timestamp interval `[begin, end)`:
//!
//! * transaction `T` **reads** the version whose interval contains
//!   `TS(T)`, recording `TS(T)` in the version's read timestamp;
//! * `T` **writes** a key by superseding its newest version — allowed only
//!   if that version was neither created after `TS(T)` nor read by a
//!   later transaction (otherwise `T` aborts: timestamp ordering would be
//!   violated).
//!
//! Uncommitted versions carry a txn *marker* (`MARK | txn_id`) in their
//! `begin` (and the superseded version's `end`); commit replaces markers
//! with the commit timestamp, abort replaces the new version's `begin`
//! with `ABORTED`.

use std::collections::BTreeMap;

use parking_lot::{Mutex, MutexGuard};

use crate::table::VersionHeader;

/// Bit distinguishing a txn marker from a committed timestamp.
pub const MARK: u64 = 1 << 63;

/// `end` value of a current (not superseded) version.
pub const INF: u64 = u64::MAX;

/// `begin` value of an aborted version (never visible).
pub const ABORTED: u64 = u64::MAX;

/// Whether `v` is a txn marker.
#[inline]
pub fn is_marker(v: u64) -> bool {
    v != ABORTED && v & MARK != 0
}

/// The txn id inside a marker.
#[inline]
pub fn marker_txn(v: u64) -> u64 {
    v & !MARK
}

/// Visibility of a version to a transaction with timestamp `ts` and id
/// `id` (single-timestamp MVTO).
pub fn visible(h: &VersionHeader, ts: u64, id: u64) -> bool {
    // Begin check: committed before ts, or our own uncommitted write.
    let begin_ok = if h.begin == ABORTED {
        false
    } else if is_marker(h.begin) {
        marker_txn(h.begin) == id
    } else {
        h.begin <= ts
    };
    if !begin_ok {
        return false;
    }
    // End check: still open, or closed after ts. A marker in `end` means a
    // concurrent uncommitted writer superseded it: still visible to others,
    // invisible to the writer itself (it must see its own new version).
    if h.end == INF {
        true
    } else if is_marker(h.end) {
        marker_txn(h.end) != id
    } else {
        ts < h.end
    }
}

/// What one stripe's mutex guards beside the chains of its keys: which of
/// those keys are *in debt* — have a committed version that superseded
/// another since vacuum last cut the chain.
///
/// `(table, key)` maps to the rid of the key's newest committed version,
/// which is where vacuum starts its walk. Commit, which holds the stripe
/// already, replaces a key's entry in place, so the map holds one entry
/// per key in debt however often it was updated; a `BTreeMap` because its
/// order is a function of its contents (vacuum's drain order decides which
/// slots the next inserts reuse, and every count downstream must repeat
/// from run to run) and because an empty one owns no memory. Volatile: a
/// crash forgets it, and the first vacuum after recovery reads the index
/// instead.
#[derive(Debug, Default)]
pub struct Stripe {
    pub(crate) debts: BTreeMap<(u32, u64), u64>,
}

/// Striped per-key mutexes serializing MVTO chain manipulation.
///
/// Chain reads, version installs, commit stamping, abort rollback, and
/// vacuum's truncation for one key all run under its stripe. The stripe
/// count bounds false sharing; multi-key commits acquire stripes in sorted
/// order to stay deadlock-free.
pub struct KeyLocks {
    stripes: Vec<Mutex<Stripe>>,
}

impl Default for KeyLocks {
    /// 1024 stripes: a power of two, so a key's stripe is a masked hash.
    fn default() -> Self {
        KeyLocks {
            stripes: (0..1024).map(|_| Mutex::default()).collect(),
        }
    }
}

impl KeyLocks {
    /// Number of stripes.
    pub(crate) fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Stripe index for `(table, key)`.
    pub fn stripe_of(&self, table: u32, key: u64) -> usize {
        // Fibonacci hashing of the pair.
        let h = (key ^ ((table as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.stripes.len() - 1)
    }

    /// Lock the stripe for one key.
    pub fn lock(&self, table: u32, key: u64) -> MutexGuard<'_, Stripe> {
        self.lock_stripe(self.stripe_of(table, key))
    }

    /// Lock stripe `index` (vacuum's drain, which goes stripe by stripe).
    pub(crate) fn lock_stripe(&self, index: usize) -> MutexGuard<'_, Stripe> {
        self.stripes[index].lock()
    }

    /// Drop every stripe's debts (a crash: they are volatile).
    pub(crate) fn forget_debts(&self) {
        for stripe in &self.stripes {
            stripe.lock().debts.clear();
        }
    }

    /// Lock a *sorted, deduplicated* set of stripe indices.
    pub fn lock_many(&self, sorted_stripes: &[usize]) -> Vec<MutexGuard<'_, Stripe>> {
        debug_assert!(sorted_stripes.windows(2).all(|w| w[0] < w[1]));
        sorted_stripes
            .iter()
            .map(|&i| self.stripes[i].lock())
            .collect()
    }
}

impl std::fmt::Debug for KeyLocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyLocks")
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::NO_RID;

    fn h(begin: u64, end: u64) -> VersionHeader {
        VersionHeader {
            begin,
            end,
            read_ts: 0,
            prev: NO_RID,
            key: 1,
        }
    }

    #[test]
    fn committed_interval_visibility() {
        let v = h(10, 20);
        assert!(!visible(&v, 9, 1));
        assert!(visible(&v, 10, 1));
        assert!(visible(&v, 19, 1));
        assert!(!visible(&v, 20, 1));
        let current = h(10, INF);
        assert!(visible(&current, 10_000, 1));
    }

    #[test]
    fn own_uncommitted_write_is_visible_only_to_self() {
        let v = h(MARK | 7, INF);
        assert!(visible(&v, 100, 7));
        assert!(!visible(&v, 100, 8));
    }

    #[test]
    fn superseded_by_uncommitted_writer() {
        // Old version closed with writer 7's marker: still visible to
        // others, not to 7 (who must read its own new version).
        let v = h(10, MARK | 7);
        assert!(visible(&v, 50, 8));
        assert!(!visible(&v, 50, 7));
    }

    #[test]
    fn aborted_versions_are_never_visible() {
        let v = h(ABORTED, INF);
        assert!(!visible(&v, u64::MAX - 1, 1));
        // ABORTED is not a marker even though its high bit is set.
        assert!(!is_marker(ABORTED));
        assert!(is_marker(MARK | 3));
        assert_eq!(marker_txn(MARK | 3), 3);
    }

    #[test]
    fn stripes_are_stable_and_bounded() {
        let locks = KeyLocks::default();
        let a = locks.stripe_of(1, 42);
        assert_eq!(a, locks.stripe_of(1, 42));
        assert!(a < locks.stripe_count());
        // Locking works and is exclusive per stripe.
        let g = locks.lock(1, 42);
        drop(g);
        let stripes = vec![1usize, 5, 9];
        let guards = locks.lock_many(&stripes);
        assert_eq!(guards.len(), 3);
    }
}
