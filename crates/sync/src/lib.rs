//! Concurrency primitives used by the Spitfire buffer manager.
//!
//! The paper (§5.2) lists the concurrent building blocks Spitfire relies on:
//!
//! 1. a concurrent hash table mapping logical page identifiers to shared
//!    page descriptors — [`ConcurrentMap`];
//! 2. a concurrent bitmap backing the CLOCK replacement policy —
//!    [`AtomicBitmap`];
//! 3. optimistic lock coupling for the B+Tree — [`VersionLatch`], one per
//!    page, held in the buffer manager's page descriptor beside the pin
//!    words (lock bit + version; no obsolete bit — the tree deletes lazily
//!    and never unlinks a node);
//! 4. the optimistic pin word that makes buffer hits latch-free, and whose
//!    shadow API carries thread-safe page migration — [`PinWord`].
//!
//! It also provides the HyMem-style NVM [`AdmissionQueue`] (paper §1, §6.5),
//! which Spitfire's probabilistic policy replaces but which the baseline
//! implementation needs.

#![warn(missing_docs)]
#![warn(clippy::all)]

/// Expand to `$strong` normally; under `cfg(spitfire_modelcheck)`, weaken
/// to `$weak` while the named [`spitfire_modelcheck::Mutation`] is active.
///
/// This is how the mutation *kill tests* seed deliberately broken protocol
/// variants (a downgraded memory ordering) into the production code
/// without a per-mutant build: the checker activates one mutation per
/// exploration and must detect it. Normal builds see only `$strong`.
macro_rules! mutant_ordering {
    ($mutation:ident, $strong:expr, $weak:expr) => {{
        #[cfg(spitfire_modelcheck)]
        {
            if spitfire_modelcheck::mutation_active(spitfire_modelcheck::Mutation::$mutation) {
                $weak
            } else {
                $strong
            }
        }
        #[cfg(not(spitfire_modelcheck))]
        {
            $strong
        }
    }};
}

mod admission;
pub mod atomic;
mod bitmap;
mod chashmap;
mod crc32;
pub mod lock;
mod optimistic;
mod padded;
mod pinword;

pub use admission::AdmissionQueue;
pub use bitmap::AtomicBitmap;
pub use chashmap::ConcurrentMap;
pub use crc32::crc32;
pub use optimistic::{OptimisticError, VersionLatch};
pub use padded::{CachePadded, StripedCounter, CACHE_LINE};
pub use pinword::{PinAttempt, PinWord, ShadowOutcome, ShadowToken};
