//! Shared page descriptors (paper §5.1, Figure 4).
//!
//! The unified mapping table stores one [`SharedPageDesc`] per logical page.
//! The descriptor records where copies of the page live (DRAM and/or NVM)
//! and how dirty each copy is ([`Dirt`]); how many threads currently use
//! each copy is counted in that copy's [`PinWord`] alone. An *exclusive* claim moves a copy through the
//! [`CopyState::Busy`] / [`CopyState::Loading`] states, which is the
//! non-blocking formulation of the paper's per-tier migration latches: a
//! fetch that encounters a copy in a transitional state waits on the
//! descriptor's condition variable instead of spinning on a latch, and
//! accesses to the *other* tier's copy proceed unimpeded — exactly the
//! concurrency the fine-grained latching protocol of §5.2 is designed to
//! allow. A *shadow* claim (the `manager::shadow` module) never leaves
//! `Resident` at all while its device I/O runs: it raises
//! [`PageState::shadow_dram`] / [`PageState::shadow_nvm`] and the copy
//! stays readable until the commit. Which of the two a tier move takes is
//! decided from the page's state: shadow when the word is open and the
//! move does device I/O, exclusive otherwise.

use parking_lot::{Condvar, Mutex};
use spitfire_sync::atomic::AtomicU32;
use spitfire_sync::{CachePadded, PinWord, VersionLatch};

use crate::types::{FrameId, PageId};

/// Where a DRAM-resident copy keeps its bytes.
///
/// A full frame holds the complete page. Fine-grained and mini layouts
/// (paper §2.1, Figure 2) hold a partial copy backed by the NVM-resident
/// page; they are introduced by the `fgpage` module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FrameRef {
    /// A whole-page frame in the tier's pool.
    Full(FrameId),
    /// A cache-line-grained page: a full-size frame whose content is loaded
    /// granule-by-granule from the backing NVM copy.
    Fine(Box<crate::fgpage::FinePage>),
    /// A mini page: at most 16 granule slots carved from a shared slab
    /// frame.
    Mini(Box<crate::fgpage::MiniPage>),
}

impl FrameRef {
    /// The pool frame that backs this reference (the slab frame for minis).
    pub(crate) fn frame(&self) -> FrameId {
        match self {
            FrameRef::Full(f) => *f,
            FrameRef::Fine(fp) => fp.frame,
            FrameRef::Mini(mp) => mp.slot.slab,
        }
    }
}

/// How far a copy is ahead of the tier below it. Ordered: a copy built
/// from several sources (an admission, a merge) carries the max of their
/// dirt, and a write raises a copy's dirt, never lowers it.
///
/// The rule for `Hint` is one sentence: *hint dirt moves between DRAM and
/// NVM exactly like data dirt and is never written to SSD.* A copy whose
/// only changes since it was clean are hint writes
/// ([`WriteGuard::write_hint`](crate::WriteGuard::write_hint)) is dropped
/// like a clean one when it leaves the buffer tiers — no I/O — and the
/// changes are lost, which their writer declared acceptable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Dirt {
    /// The copy equals the tier below it.
    Clean,
    /// Changed only by hint writes: may be dropped without write-back.
    Hint,
    /// Changed by a write that must reach the tier below before the copy
    /// is dropped.
    Data,
}

/// Lifecycle of one tier's copy of a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CopyState {
    /// Being installed by a migration; not yet readable. Waiters block on
    /// the descriptor condvar until it becomes `Resident`.
    Loading,
    /// Present and usable; its guards are counted in the slot's pin word.
    /// `dirt` says how the copy differs from the tier below it.
    Resident {
        /// Where the bytes live.
        frame: FrameRef,
        /// What must happen to this copy's changes before it is dropped.
        dirt: Dirt,
    },
    /// Under migration (eviction or promotion-source drain): claimed with
    /// a zero pin count, and no new pins are granted.
    Busy {
        /// Where the bytes live.
        frame: FrameRef,
        /// Dirt carried through the migration.
        dirt: Dirt,
    },
}

impl CopyState {
    /// Whether this copy is in a transitional state.
    #[cfg(test)]
    pub(crate) fn in_transition(&self) -> bool {
        matches!(self, CopyState::Loading | CopyState::Busy { .. })
    }
}

/// Mutable per-page state guarded by the descriptor mutex.
#[derive(Debug, Default)]
pub(crate) struct PageState {
    /// The DRAM-resident copy, if any.
    pub dram: Option<CopyState>,
    /// The NVM-resident copy, if any.
    pub nvm: Option<CopyState>,
    /// A shadow-copy operation (migration or write-back) is in flight on
    /// the DRAM copy. The slot stays `Resident` — readers keep pinning and
    /// the fast path keeps serving — but at most one shadow operation may
    /// claim a copy, and tier transitions must stand down until it
    /// resolves.
    pub shadow_dram: bool,
    /// Same for the NVM copy.
    pub shadow_nvm: bool,
}

impl PageState {
    /// Copy slot for `tier` (DRAM = tier 1 pool, NVM = tier 2 pool).
    pub(crate) fn slot_mut(&mut self, dram: bool) -> &mut Option<CopyState> {
        if dram {
            &mut self.dram
        } else {
            &mut self.nvm
        }
    }

    /// The shadow-operation flag of the same slot.
    pub(crate) fn shadow_mut(&mut self, dram: bool) -> &mut bool {
        if dram {
            &mut self.shadow_dram
        } else {
            &mut self.shadow_nvm
        }
    }
}

/// Shared page descriptor stored in the mapping table (Figure 4).
///
/// # Pin words
///
/// Each copy's guards are counted in one [`PinWord`], and nowhere else.
/// The fast path pins a stably resident copy with a CAS on an open word,
/// without the mutex; the slow path pins under the mutex with
/// [`PinWord::pin_locked`], open word or not. Fine-grained and mini copies
/// count on the DRAM word too, which stays closed over them. The words
/// are opened and closed *only* under the descriptor mutex, maintaining
/// two invariants:
///
/// * `dram_pin` is open ⇔ the DRAM slot holds a `Resident` copy in a
///   full frame (fine-grained and mini copies never open the word —
///   their I/O needs the mutex anyway);
/// * `nvm_pin` is open ⇔ the NVM slot holds a `Resident` full-frame
///   copy **and** no DRAM copy exists. A DRAM copy may be newer than the
///   NVM copy, so serving NVM optimistically while one exists would read
///   stale bytes.
///
/// A copy leaves `Resident` only once its word is closed with a zero pin
/// count: an exclusive claim closes the word *first* (see
/// [`PinWord::close`]) and backs off if readers are draining; a shadow
/// move does its device I/O with the word still open and closes it only
/// at commit ([`PinWord::shadow_commit`]), aborting if the version moved
/// or pins did not drain. A shadow *flush* never closes the word — the
/// copy stays `Resident` and merely goes clean. An NVM copy under a
/// fine-grained or mini DRAM copy holds no pin for it: the partial copy's
/// presence is what keeps eviction off it.
///
/// # Layout
///
/// The pin words are the only fields the lock-free hit path writes, and
/// every fetch CASes one of them. Each sits on its own cache line
/// ([`CachePadded`]) so that (a) hammering a page's DRAM word never
/// invalidates the line holding its NVM word or the descriptor mutex, and
/// (b) two descriptors allocated back-to-back never share a pin-word
/// line. This is the ROADMAP "flat hit-path scaling" fix: before padding,
/// unrelated hot pages could ping-pong one line between cores.
///
/// The content [`latch`](Self::latch) sits with the cold fields (`pid`,
/// the mutex), on neither pin-word line: a pin CAS on a hot page must not
/// invalidate the line its optimistic readers validate
/// against, and a latch write must not bounce the word every fetch CASes.
/// It is not given a line of its own — its readers only load it, so a
/// read-mostly page keeps the line shared in every core's cache, and the
/// mutex beside it is taken by whoever writes the page anyway
/// (`mark_dirty` takes it under the same write latch).
///
/// The policy's draw count, [`draws`](Self::draws), shares that cold line
/// with the latch. It is written only when a coin is actually drawn — an
/// NVM hit, a miss, a dirty DRAM eviction, at a probability strictly
/// between 0 and 1 — and never on a DRAM hit.
///
/// # Identity
///
/// A pid's descriptor is created once, on the page's first fetch, and is
/// never replaced while the manager runs: evictions, reloads, promotions
/// and aborted shadow moves change its *state*, not its address. Only
/// `simulate_crash` drops descriptors (the whole mapping table at once).
/// The latch relies on this — whoever holds a pin on the page reaches the
/// same latch word whichever tier the copy is in — and
/// `descriptor_identity_survives_tier_moves` pins it. The draw count
/// lives as long as the descriptor, so it too starts again at zero after
/// a crash, as in a new process built with the same seed.
#[derive(Debug)]
pub(crate) struct SharedPageDesc {
    /// The logical page this descriptor tracks.
    pub pid: PageId,
    /// Copy states; all transitions take this mutex (never held across
    /// device I/O).
    pub state: Mutex<PageState>,
    /// Signalled on every state transition; waiters re-check under the
    /// mutex.
    pub cond: Condvar,
    /// Pin word for the DRAM copy (own cache line).
    pub dram_pin: CachePadded<PinWord>,
    /// Pin word for the NVM copy (own cache line).
    pub nvm_pin: CachePadded<PinWord>,
    /// Optimistic latch over the page's *content*, for whoever structures
    /// it (the B+tree's lock coupling). The buffer manager never takes it:
    /// it only keeps it where a pin on the page finds it, so it follows
    /// the page across DRAM / NVM / SSD. Reached through
    /// [`PageGuard::latch`](crate::PageGuard::latch).
    pub latch: VersionLatch,
    /// How many policy coins have been drawn for this page: the `n` of
    /// its next coin ([`crate::policy::page_coin`]).
    pub draws: AtomicU32,
}

impl SharedPageDesc {
    /// A descriptor for `pid` with no resident copies.
    pub(crate) fn new(pid: PageId) -> Self {
        SharedPageDesc {
            pid,
            state: Mutex::new(PageState::default()),
            cond: Condvar::new(),
            dram_pin: CachePadded::new(PinWord::new()),
            nvm_pin: CachePadded::new(PinWord::new()),
            latch: VersionLatch::new(),
            draws: AtomicU32::new(0),
        }
    }

    /// The pin word counting the guards on the copy in the given slot.
    pub(crate) fn pin_word(&self, dram: bool) -> &PinWord {
        if dram {
            &self.dram_pin
        } else {
            &self.nvm_pin
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_state_helpers() {
        let r = CopyState::Resident {
            frame: FrameRef::Full(FrameId(1)),
            dirt: Dirt::Clean,
        };
        assert!(!r.in_transition());
        let b = CopyState::Busy {
            frame: FrameRef::Full(FrameId(1)),
            dirt: Dirt::Data,
        };
        assert!(b.in_transition());
        assert!(CopyState::Loading.in_transition());
    }

    #[test]
    fn dirt_merges_take_the_max() {
        assert!(Dirt::Clean < Dirt::Hint && Dirt::Hint < Dirt::Data);
        assert_eq!(Dirt::Clean.max(Dirt::Hint), Dirt::Hint);
        assert_eq!(Dirt::Data.max(Dirt::Hint), Dirt::Data);
    }

    #[test]
    fn slot_mut_selects_tier() {
        let mut st = PageState::default();
        *st.slot_mut(true) = Some(CopyState::Loading);
        assert!(st.dram.is_some());
        assert!(st.nvm.is_none());
        *st.slot_mut(false) = Some(CopyState::Loading);
        assert!(st.nvm.is_some());
    }

    #[test]
    fn frame_ref_full_reports_frame() {
        assert_eq!(FrameRef::Full(FrameId(9)).frame(), FrameId(9));
    }

    #[test]
    fn pin_words_sit_on_distinct_cache_lines() {
        let d = SharedPageDesc::new(PageId(1));
        let a = std::ptr::addr_of!(d.dram_pin) as usize;
        let b = std::ptr::addr_of!(d.nvm_pin) as usize;
        assert_eq!(a % spitfire_sync::CACHE_LINE, 0);
        assert_eq!(b % spitfire_sync::CACHE_LINE, 0);
        assert!(a.abs_diff(b) >= spitfire_sync::CACHE_LINE);
        // The content latch shares a line with neither.
        let latch = std::ptr::addr_of!(d.latch) as usize / spitfire_sync::CACHE_LINE;
        assert_ne!(latch, a / spitfire_sync::CACHE_LINE);
        assert_ne!(latch, b / spitfire_sync::CACHE_LINE);
        // Nor does the draw count: it shares the cold line with the latch.
        let draws = std::ptr::addr_of!(d.draws) as usize / spitfire_sync::CACHE_LINE;
        assert_eq!(draws, latch);
    }
}
