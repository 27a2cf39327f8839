//! In-tree loom-style interleaving explorer for Spitfire's lock-free
//! protocols.
//!
//! crates.io is unreachable in this build environment, so — consistent
//! with the `vendor/` stand-in pattern — this crate implements the small
//! slice of a model checker the repo needs:
//!
//! - **Instrumented primitives** ([`atomic`], [`lock`], [`cell`],
//!   [`thread`]) that route every shared-memory operation through a
//!   cooperative scheduler when run under a [`Checker`], and fall through
//!   to the real `std` operations otherwise. `crates/sync` re-exports
//!   them behind its `cfg(spitfire_modelcheck)` facade.
//! - **An operational release/acquire memory model** (vector clocks over
//!   full per-location store histories) strong enough that a store or
//!   load incorrectly downgraded to `Relaxed` produces an observable
//!   stale read or data race in some explored execution.
//! - **A DFS driver** ([`Checker`]) with sleep-set partial-order
//!   reduction and optional CHESS-style preemption bounding, replaying
//!   recorded choice prefixes until the state space is exhausted.
//! - **A mutation registry** ([`Mutation`], [`mutation_active`]): the
//!   protocol crates compile tiny cfg-gated "broken variant" hooks, and
//!   kill tests assert the explorer detects each one — evidence the
//!   checker has teeth, not just green lights.
//!
//! See DESIGN.md §7 for the protocol porting guide and the model's
//! documented strengthenings.

mod clock;
mod dfs;
mod engine;

pub mod atomic;
pub mod cell;
pub mod lock;
pub mod thread;

pub use dfs::{CheckResult, Checker, Failure, Report};
pub use engine::{current_thread_index, mutation_active};

/// Seeded protocol mutations for checker kill tests. Each variant names a
/// deliberately broken build of one protocol (a weakened ordering or a
/// removed check) compiled behind `cfg(spitfire_modelcheck)` in the
/// protocol crate and switched on at runtime per-[`Checker`], so one test
/// binary hosts every mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Mutation {
    /// `PinWord::open`'s publishing CAS downgraded `Release` → `Relaxed`:
    /// a pinning reader can observe the OPEN bit without the payload
    /// store that precedes it.
    PinOpenRelaxed,
    /// `PinWord::close`'s CAS downgraded `AcqRel` → `Relaxed`: the closer
    /// no longer synchronizes with the last unpin, so frame reuse races
    /// with the final reader.
    PinCloseRelaxed,
    /// `PinWord::unpin`'s CAS downgraded `Release` → `Relaxed`: the
    /// reader's critical section can leak past the unpin.
    PinUnpinRelaxed,
    /// `PinWord::try_pin` check-then-increment instead of a full-word
    /// CAS: a pin can land after `close` claimed quiescence.
    PinBlindPin,
    /// `PinWord::pin_locked` as load-then-store instead of `fetch_add`: a
    /// fast-path pin landing in between is overwritten, so a closer sees
    /// a count short by one and retires a copy still in use.
    PinLockedSplit,
    /// `AtomicBitmap::set` as load-then-store instead of `fetch_or`:
    /// concurrent reference-bit touches lose updates.
    BitmapSetSplit,
    /// `StripedCounter::add` as load-then-store instead of `fetch_add`:
    /// same-stripe increments lose updates.
    CounterAddSplit,
    /// `ConcurrentMap::get_or_insert_with` skips the re-check under the
    /// write lock: two racing missers insert distinct values and observe
    /// different descriptors for the same page.
    MapUpgradeNoRecheck,
    /// `PinWord::shadow_commit` skips the version re-check after closing
    /// the word: a shadow copy that raced a writer commits anyway and the
    /// write is lost when the stale copy is installed.
    ShadowSkipVersionCheck,
    /// `VersionLatch::write_unlock`'s RMW downgraded `Release` →
    /// `Relaxed`: a reader can take the new version without the writes
    /// made under the lock, and validate a torn read.
    LatchUnlockRelaxed,
}
