//! The shadow claim/finish pair: the single place that knows how a copy's
//! [`CopyState`] and its [`spitfire_sync::PinWord`] move together across a
//! tier move.
//!
//! The rule for every tier move is *shadow when the word is open and the
//! move does device I/O; exclusive claim otherwise*:
//!
//! * [`BufferManager::shadow_claim`] (descriptor mutex held) snapshots the
//!   source word's version **without closing it**, raises the page's
//!   `shadow_*` flag so other transitions stand down, and marks an NVM
//!   merge target `Busy`. The source slot stays `Resident`: the fast path
//!   and the mutex path both keep serving it through the copy window.
//! * The caller drops the mutex and does its device I/O.
//! * [`BufferManager::shadow_finish`] retakes the mutex and resolves the
//!   move. It commits only if the I/O succeeded and the word proves that
//!   no write overlapped the window and every pin drained; otherwise the
//!   source stays `Resident`, dirty and authoritative, and whatever landed
//!   in the destination is discarded or left dirty.
//!
//! The word's count is every pin on the copy, the mutex path's included.
//! The callers of a *retiring* move skip a pinned source before the I/O,
//! since its commit could only abort; a flush claims a pinned copy and
//! writes it, and the copy stays dirty.
//!
//! A copy's [`Dirt`] travels with its bytes: a committed promotion is
//! clean, an admitted copy carries the source's dirt and a merge target
//! the max of its own and the source's. Hint dirt moves exactly like data
//! dirt here; only the callers' SSD legs tell them apart.
//!
//! On every abort the source slot is `Resident` with its dirt untouched
//! and its word open (reopened if a failed commit closed it).
//! Retiring moves (`Promote`, `Evict`, `WriteBack`) commit through
//! [`spitfire_sync::PinWord::shadow_commit`], which closes the word; a
//! flush (`Flush`, `Home`) never closes it and commits through
//! [`spitfire_sync::PinWord::shadow_still_clean`] plus a zero pin count.
//! A `Home` flush also drops the NVM copy its source shadowed whenever its
//! I/O succeeded, committed or not: the home image is newer than that
//! copy either way.
//! DESIGN.md "Shadow-copy migrations" tabulates every move's source and
//! destination states; the unit tests below check that table row by row.

use spitfire_device::AccessPattern;
use spitfire_obs::{self as obs, Op};
use spitfire_sync::{ShadowOutcome, ShadowToken};

use super::{with_page_buf, BufferManager};
use crate::descriptor::{CopyState, Dirt, FrameRef, PageState, SharedPageDesc};
use crate::metrics::ShadowPath;
use crate::types::{FrameId, PageId};
use crate::Result;

/// Spin budget a shadow-copy commit spends draining pins
/// (see [`spitfire_sync::PinWord::shadow_commit`]). Live readers hold a
/// pin for a handful of loads, so a short budget drains them; a pin that
/// outlasts it belongs to a descheduled thread or to a writer blocked on
/// *our* descriptor mutex — spinning longer would deadlock on the latter,
/// so the commit aborts and the migration retries later.
const SHADOW_COMMIT_SPIN: u32 = 128;

/// A shadow claim on one `Resident` full-frame copy, held from
/// [`BufferManager::shadow_claim`] to [`BufferManager::shadow_finish`].
#[derive(Debug)]
pub(super) struct ShadowClaim {
    /// The claimed copy sits in the DRAM slot (else the NVM slot).
    src_dram: bool,
    /// Frame of the claimed copy.
    src: FrameId,
    /// Version snapshot of the source word at claim time.
    token: ShadowToken,
    /// NVM copy marked `Busy` as the merge target of a DRAM-source move,
    /// with the dirt it had before the claim.
    merge: Option<(FrameId, Dirt)>,
}

impl ShadowClaim {
    /// Frame of the claimed (source) copy.
    pub(super) fn src(&self) -> FrameId {
        self.src
    }
}

/// How a copy was claimed for a tier move.
#[derive(Debug)]
pub(super) enum Claim {
    /// Word open, I/O ahead: the copy stays `Resident` and readable.
    Shadow(ShadowClaim),
    /// Word closed with zero pins, copy marked `Busy`.
    Exclusive,
}

/// What a shadow move does with its source and destination when it
/// commits (tabulated in DESIGN.md "Shadow-copy migrations").
#[derive(Debug, Clone, Copy)]
pub(super) enum ShadowEnd {
    /// NVM→DRAM promotion into the given DRAM frame. `None`: no DRAM frame
    /// could be claimed, so the move aborts without touching the word.
    Promote(Option<FrameId>),
    /// DRAM eviction. `Some` is a freshly admitted NVM frame; with `None`
    /// the bytes went to the claim's merge target or, lacking one, to SSD.
    Evict(Option<FrameId>),
    /// Dirty NVM copy written to SSD and synced, about to be retired: left
    /// `Busy` and clean with its word closed for `finish_nvm_eviction`.
    WriteBack,
    /// DRAM copy reconciled into the claim's merge target, or written to
    /// SSD and synced; it stays resident and only goes clean.
    Flush,
    /// DRAM copy written to its SSD home and synced; it stays resident and
    /// only goes clean. `Some` is the NVM copy it shadowed, whose frame
    /// header the mover cleared after the sync: it is dropped and its
    /// frame freed if the I/O succeeded, even when the flush itself raced.
    Home(Option<FrameId>),
}

impl ShadowEnd {
    fn path(self) -> ShadowPath {
        match self {
            ShadowEnd::Promote(_) => ShadowPath::Promote,
            ShadowEnd::Evict(_) | ShadowEnd::WriteBack => ShadowPath::Evict,
            ShadowEnd::Flush | ShadowEnd::Home(_) => ShadowPath::Flush,
        }
    }
}

impl BufferManager {
    /// Re-open the NVM pin word if the current state allows optimistic
    /// NVM pins (Resident full-frame copy, no DRAM copy shadowing it).
    /// Call under the descriptor mutex after restoring a state.
    pub(super) fn reopen_nvm_word(desc: &SharedPageDesc, st: &PageState) {
        if st.dram.is_none() {
            if let Some(CopyState::Resident {
                frame: FrameRef::Full(f),
                ..
            }) = &st.nvm
            {
                desc.nvm_pin.open(f.0);
            }
        }
    }

    /// Re-open the DRAM pin word if the DRAM slot holds a Resident
    /// full-frame copy. Call under the descriptor mutex.
    pub(super) fn reopen_dram_word(desc: &SharedPageDesc, st: &PageState) {
        if let Some(CopyState::Resident {
            frame: FrameRef::Full(f),
            ..
        }) = &st.dram
        {
            desc.dram_pin.open(f.0);
        }
    }

    /// Copy one full page between the pools through the thread's scratch
    /// buffer: NVM→DRAM when `to_dram`, else DRAM→NVM. An NVM destination
    /// is persisted, and stamped with `header` when it is a freshly
    /// claimed frame that recovery must be able to find.
    ///
    /// Under a shadow claim the source stays open, so a racing writer may
    /// be mutating the bytes as they are read. The arena contract allows
    /// that (torn bytes, never memory unsafety) because the copy is
    /// validated before install — [`Self::shadow_finish`] aborts if any
    /// write bumped the version, and the torn copy is discarded.
    pub(super) fn copy_frame(
        &self,
        to_dram: bool,
        src: FrameId,
        dst: FrameId,
        header: Option<PageId>,
    ) -> Result<()> {
        let page = self.config.page_size;
        let (from, to) = if to_dram {
            (self.nvm_pool(), self.tier1_pool())
        } else {
            (self.tier1_pool(), self.nvm_pool())
        };
        with_page_buf(page, |buf| -> Result<()> {
            from.read(src, 0, buf, AccessPattern::Sequential)?;
            to.write(dst, 0, buf, AccessPattern::Sequential)?;
            if !to_dram {
                to.persist(dst, 0, page)?;
                if let Some(pid) = header {
                    to.write_frame_header(dst, pid)?;
                }
            }
            Ok(())
        })
    }

    /// Shadow-claim the copy in `src`: a `Resident` full-frame copy in the
    /// slot `src_dram` names, on a page with no other shadow operation in
    /// flight (the caller checked all of that under the descriptor mutex
    /// it holds). `merge` names a `Resident` NVM copy under a DRAM source
    /// — unpinned, since fetches take the DRAM copy — that the move will
    /// overwrite; it is marked `Busy` with data dirt for the duration.
    ///
    /// Returns `None`, with nothing changed, when the source word is
    /// closed. For an NVM source that is the expected answer whenever a
    /// DRAM copy shadows it (readers use DRAM, so an exclusive claim
    /// stalls nobody); in every other case a closed word on such a copy
    /// is a broken word/slot invariant — the one `assert_quiescent`
    /// states — and debug builds say so instead of backing off silently.
    pub(super) fn shadow_claim(
        desc: &SharedPageDesc,
        st: &mut PageState,
        src_dram: bool,
        src: FrameId,
        merge: Option<FrameId>,
    ) -> Option<ShadowClaim> {
        let token = desc.pin_word(src_dram).shadow_begin();
        debug_assert_eq!(
            token.is_some(),
            src_dram || st.dram.is_none(),
            "page {}: pin word disagrees with a Resident copy (dram {:?}, nvm {:?})",
            desc.pid,
            st.dram,
            st.nvm
        );
        let token = token?;
        *st.shadow_mut(src_dram) = true;
        let merge = merge.map(|nf| {
            let target = match &st.nvm {
                Some(CopyState::Resident { dirt, .. }) => *dirt,
                _ => Dirt::Data,
            };
            st.nvm = Some(CopyState::Busy {
                frame: FrameRef::Full(nf),
                dirt: Dirt::Data,
            });
            (nf, target)
        });
        Some(ShadowClaim {
            src_dram,
            src,
            token,
            merge,
        })
    }

    /// Resolve a shadow move after its device I/O: commit the transition
    /// `end` describes, or abort and leave the source authoritative. This
    /// is the only shadow commit/abort epilogue. Returns whether the move
    /// committed.
    ///
    /// The move commits only if the I/O succeeded (`io_ok`) and the word
    /// agrees: a retiring move closes it and demands an unchanged version
    /// plus drained pins; a flush leaves it open and demands zero pins and
    /// an unchanged version (a guard write bumps before its unpin, so the
    /// pin checks close the window a pinned writer leaves, whichever path
    /// pinned it).
    ///
    /// Whatever the outcome the claim is released, a merge target goes
    /// back to `Resident` — committed, with the max of its own and the
    /// source's dirt (it holds the reconciled bytes); aborted, with data
    /// dirt (the merge may be torn, so it must be written down before it
    /// is discarded) — waiters are woken, and the frame that lost its page
    /// is freed: the source on a committed eviction, the destination on an
    /// abort, and a home flush's shadowed NVM copy once its I/O succeeded.
    /// An attempt whose I/O succeeded counts as a commit or an abort on
    /// `end`'s [`ShadowPath`]; a failed I/O is not a protocol outcome and
    /// counts as neither.
    pub(super) fn shadow_finish(
        &self,
        desc: &SharedPageDesc,
        claim: ShadowClaim,
        end: ShadowEnd,
        io_ok: bool,
    ) -> bool {
        let ShadowClaim {
            src_dram,
            src,
            token,
            merge,
        } = claim;
        let word = desc.pin_word(src_dram);
        let mut st = desc.state.lock();
        *st.shadow_mut(src_dram) = false;
        // The shadow flag kept the slots stable (exclusions in eviction,
        // flush, and fetch): the source is still `Resident` and no copy
        // appeared beside it; only pins and the dirt may have moved — and
        // the dirt only if a write did, which fails the commit below.
        let (resident, src_dirt) = match st.slot_mut(src_dram) {
            Some(CopyState::Resident { dirt, .. }) => (true, *dirt),
            _ => (false, Dirt::Data),
        };
        let has_destination = !matches!(end, ShadowEnd::Promote(None));
        let committed = io_ok
            && has_destination
            && resident
            && match end {
                ShadowEnd::Flush | ShadowEnd::Home(_) => {
                    word.pins() == 0 && word.shadow_still_clean(&token)
                }
                _ => {
                    let stall_t = obs::op_start();
                    let outcome = word.shadow_commit(&token, SHADOW_COMMIT_SPIN);
                    obs::record_since(Op::MigrationStall, stall_t);
                    if outcome != ShadowOutcome::Committed {
                        // shadow_commit left the word closed: reopen it so
                        // the fast path resumes on the (still
                        // authoritative) copy.
                        if src_dram {
                            Self::reopen_dram_word(desc, &st);
                        } else {
                            Self::reopen_nvm_word(desc, &st);
                        }
                    }
                    outcome == ShadowOutcome::Committed
                }
            };
        if let Some((nf, target)) = merge {
            st.nvm = Some(CopyState::Resident {
                frame: FrameRef::Full(nf),
                dirt: if committed {
                    target.max(src_dirt)
                } else {
                    Dirt::Data
                },
            });
        }
        // The home image is durable and newer than the shadowed NVM copy,
        // whose header is gone: the slot stops naming it, raced or not.
        let dropped = match end {
            ShadowEnd::Home(Some(nf)) if io_ok => {
                debug_assert!(
                    matches!(&st.nvm, Some(CopyState::Resident { frame, .. }) if frame.frame() == nf),
                    "page {}: home flush dropped an NVM copy it did not shadow",
                    desc.pid
                );
                st.nvm = None;
                Some(nf)
            }
            _ => None,
        };
        if committed {
            match end {
                // The NVM word stays closed: a DRAM copy shadows it now.
                // The new copy is pinned for the promoter's guard.
                ShadowEnd::Promote(dram_frame) => {
                    let f = dram_frame.expect("a committed promotion has a frame");
                    st.dram = Some(CopyState::Resident {
                        frame: FrameRef::Full(f),
                        dirt: Dirt::Clean,
                    });
                    desc.dram_pin.open(f.0);
                    desc.dram_pin.pin_locked();
                }
                // Zero pins, version unchanged: the written-down bytes are
                // proven current. Retire the DRAM copy; with it gone, a
                // Resident NVM copy becomes optimistically pinnable.
                ShadowEnd::Evict(admitted) => {
                    st.dram = None;
                    if let Some(nf) = admitted {
                        st.nvm = Some(CopyState::Resident {
                            frame: FrameRef::Full(nf),
                            dirt: src_dirt,
                        });
                    }
                    Self::reopen_nvm_word(desc, &st);
                }
                // Exclusively claimed from here on, so the caller can
                // clear the frame header outside the mutex.
                ShadowEnd::WriteBack => {
                    st.nvm = Some(CopyState::Busy {
                        frame: FrameRef::Full(src),
                        dirt: Dirt::Clean,
                    });
                }
                ShadowEnd::Flush | ShadowEnd::Home(_) => {
                    if let Some(CopyState::Resident { dirt, .. }) = st.slot_mut(src_dram) {
                        *dirt = Dirt::Clean;
                    }
                }
            }
        }
        desc.cond.notify_all();
        drop(st);
        // Frames are freed after the slots stopped naming them, so a
        // racing fetch cannot observe a freed frame id in a Resident state.
        match (end, committed) {
            (ShadowEnd::Evict(_), true) => self.tier1_pool().free(src),
            (ShadowEnd::Promote(Some(dram_frame)), false) => self.tier1_pool().free(dram_frame),
            (ShadowEnd::Evict(Some(nf)), false) => {
                // The freshly admitted frame was never linked into the
                // descriptor; scrub its header (so recovery cannot adopt
                // it) and give it back.
                let _ = self.nvm_pool().clear_frame_header(nf);
                self.nvm_pool().free(nf);
            }
            _ => {}
        }
        if let Some(nf) = dropped {
            self.nvm_pool().free(nf);
            self.metrics.record_nvm_home_drop();
        }
        if committed {
            self.metrics.record_shadow_commit(end.path());
        } else if io_ok {
            self.metrics.record_shadow_abort(end.path());
        }
        committed
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{install, manager};
    use super::*;
    use spitfire_sync::PinAttempt;
    use std::sync::Arc;

    /// The seven tier moves that go through `shadow_finish`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Move {
        Promote,
        EvictMerge,
        EvictAdmit,
        EvictToSsd,
        NvmWriteBack,
        /// With an NVM merge target (the SSD leg differs only in the I/O).
        DramFlush,
        /// To the SSD home, over an NVM copy the DRAM copy shadows.
        DramHome,
    }

    /// What happens between claim and finish.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Window {
        Quiet,
        RacedWrite,
        ReaderDraining,
        IoFailed,
    }

    const QUIET: [Window; 1] = [Window::Quiet];
    const ABORTS: [Window; 3] = [Window::RacedWrite, Window::ReaderDraining, Window::IoFailed];
    const RACES: [Window; 2] = [Window::RacedWrite, Window::ReaderDraining];
    const IO_FAILED: [Window; 1] = [Window::IoFailed];

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Slot {
        Empty,
        Resident(Dirt),
        Busy(Dirt),
    }

    fn slot(s: &Option<CopyState>) -> Slot {
        match s {
            None => Slot::Empty,
            Some(CopyState::Resident { dirt, .. }) => Slot::Resident(*dirt),
            Some(CopyState::Busy { dirt, .. }) => Slot::Busy(*dirt),
            Some(CopyState::Loading) => panic!("shadow moves never leave a slot Loading"),
        }
    }

    /// One move from one starting state, and the state `shadow_finish`
    /// must leave after each of `windows` — a commit after a quiet one, an
    /// abort or a failed I/O after any other. `src` is the source copy's
    /// dirt; `target` the starting dirt of the NVM copy a DRAM-source move
    /// merges into or shadows (unused by the other moves). Frame deltas
    /// are free-frame counts relative to the moment of the claim (before
    /// any destination frame was allocated): a linked destination costs
    /// one, a freed source or dropped copy gives one back, a freed
    /// destination nets to zero.
    struct Row {
        mv: Move,
        src: Dirt,
        target: Dirt,
        windows: &'static [Window],
        dram: Slot,
        nvm: Slot,
        dram_open: bool,
        nvm_open: bool,
        dram_free: isize,
        nvm_free: isize,
        path: ShadowPath,
    }

    use Dirt::{Clean as C, Data as D, Hint as H};
    const DATA: Slot = Slot::Resident(D);
    const HINT: Slot = Slot::Resident(H);
    const CLEAN: Slot = Slot::Resident(C);
    use ShadowPath::{Evict, Flush, Promote};

    #[rustfmt::skip]
    const TABLE: [Row; 26] = [
        // Promotion: the NVM source is untouched either way; committed, the DRAM copy shadows it.
        Row { mv: Move::Promote, src: D, target: C, windows: &QUIET,  dram: CLEAN, nvm: DATA, dram_open: true,  nvm_open: false, dram_free: -1, nvm_free: 0, path: Promote },
        Row { mv: Move::Promote, src: D, target: C, windows: &ABORTS, dram: Slot::Empty, nvm: DATA, dram_open: false, nvm_open: true, dram_free: 0, nvm_free: 0, path: Promote },
        // Merge: the (initially clean) NVM target ends dirty whether or not the move commits.
        Row { mv: Move::EvictMerge, src: D, target: C, windows: &QUIET,  dram: Slot::Empty, nvm: DATA, dram_open: false, nvm_open: true,  dram_free: 1, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictMerge, src: D, target: C, windows: &ABORTS, dram: DATA, nvm: DATA, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Evict },
        // Admit: the fresh NVM frame is linked on commit, scrubbed and freed on abort.
        Row { mv: Move::EvictAdmit, src: D, target: C, windows: &QUIET,  dram: Slot::Empty, nvm: DATA, dram_open: false, nvm_open: true,  dram_free: 1, nvm_free: -1, path: Evict },
        Row { mv: Move::EvictAdmit, src: D, target: C, windows: &ABORTS, dram: DATA, nvm: Slot::Empty, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictToSsd, src: D, target: C, windows: &QUIET,  dram: Slot::Empty, nvm: Slot::Empty, dram_open: false, nvm_open: false, dram_free: 1, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictToSsd, src: D, target: C, windows: &ABORTS, dram: DATA, nvm: Slot::Empty, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Evict },
        // Write-back: committed, the copy is held Busy/clean/closed for `finish_nvm_eviction`.
        Row { mv: Move::NvmWriteBack, src: D, target: C, windows: &QUIET,  dram: Slot::Empty, nvm: Slot::Busy(C), dram_open: false, nvm_open: false, dram_free: 0, nvm_free: 0, path: Evict },
        Row { mv: Move::NvmWriteBack, src: D, target: C, windows: &ABORTS, dram: Slot::Empty, nvm: DATA, dram_open: false, nvm_open: true, dram_free: 0, nvm_free: 0, path: Evict },
        // Flushes never close the word; the copy only goes clean.
        Row { mv: Move::DramFlush, src: D, target: C, windows: &QUIET,  dram: CLEAN, nvm: DATA, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Flush },
        Row { mv: Move::DramFlush, src: D, target: C, windows: &ABORTS, dram: DATA, nvm: DATA, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Flush },
        // Home: once the home image is durable the shadowed NVM copy is dropped, raced or not;
        // only a failed I/O leaves both copies as they were.
        Row { mv: Move::DramHome, src: D, target: D, windows: &QUIET,  dram: CLEAN, nvm: Slot::Empty, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 1, path: Flush },
        Row { mv: Move::DramHome, src: D, target: D, windows: &RACES,  dram: DATA, nvm: Slot::Empty, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 1, path: Flush },
        Row { mv: Move::DramHome, src: D, target: D, windows: &IO_FAILED, dram: DATA, nvm: DATA, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Flush },
        // Hint sources move exactly like data: a promotion leaves the source's dirt alone, an
        // admitted copy carries it, a merge target ends with the max of both, and an aborted
        // merge target has data dirt (its bytes may be torn).
        Row { mv: Move::Promote, src: H, target: C, windows: &QUIET,  dram: CLEAN, nvm: HINT, dram_open: true,  nvm_open: false, dram_free: -1, nvm_free: 0, path: Promote },
        Row { mv: Move::Promote, src: H, target: C, windows: &ABORTS, dram: Slot::Empty, nvm: HINT, dram_open: false, nvm_open: true, dram_free: 0, nvm_free: 0, path: Promote },
        Row { mv: Move::EvictMerge, src: H, target: C, windows: &QUIET,  dram: Slot::Empty, nvm: HINT, dram_open: false, nvm_open: true,  dram_free: 1, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictMerge, src: H, target: C, windows: &ABORTS, dram: HINT, nvm: DATA, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictMerge, src: H, target: H, windows: &QUIET,  dram: Slot::Empty, nvm: HINT, dram_open: false, nvm_open: true,  dram_free: 1, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictMerge, src: H, target: D, windows: &QUIET,  dram: Slot::Empty, nvm: DATA, dram_open: false, nvm_open: true,  dram_free: 1, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictMerge, src: D, target: H, windows: &QUIET,  dram: Slot::Empty, nvm: DATA, dram_open: false, nvm_open: true,  dram_free: 1, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictAdmit, src: H, target: C, windows: &QUIET,  dram: Slot::Empty, nvm: HINT, dram_open: false, nvm_open: true,  dram_free: 1, nvm_free: -1, path: Evict },
        Row { mv: Move::EvictAdmit, src: H, target: C, windows: &ABORTS, dram: HINT, nvm: Slot::Empty, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Evict },
        // The SSD leg of a hint copy writes nothing, but commits (or aborts) the same way.
        Row { mv: Move::EvictToSsd, src: H, target: C, windows: &QUIET,  dram: Slot::Empty, nvm: Slot::Empty, dram_open: false, nvm_open: false, dram_free: 1, nvm_free: 0, path: Evict },
        Row { mv: Move::EvictToSsd, src: H, target: C, windows: &ABORTS, dram: HINT, nvm: Slot::Empty, dram_open: true, nvm_open: false, dram_free: 0, nvm_free: 0, path: Evict },
    ];

    fn run(row: &Row, window: Window) {
        let ctx = format!("{:?} {:?}→{:?} / {window:?}", row.mv, row.src, row.target);
        let bm = manager();
        let pid = bm.allocate_page().unwrap();
        let desc: Arc<SharedPageDesc> = bm.descriptor(pid).unwrap();
        let src_dram = !matches!(row.mv, Move::Promote | Move::NvmWriteBack);
        let nvm_dirt = if src_dram { row.target } else { row.src };
        let nvm = (!src_dram
            || matches!(row.mv, Move::EvictMerge | Move::DramFlush | Move::DramHome))
        .then(|| install(&bm, &desc, false, nvm_dirt));
        let dram = src_dram.then(|| install(&bm, &desc, true, row.src));
        let src = if src_dram { dram } else { nvm }.unwrap();
        let merge = if src_dram && row.mv != Move::DramHome {
            nvm
        } else {
            None
        };
        let (dram_free0, nvm_free0) = bm.free_frames();
        let word = desc.pin_word(src_dram);

        // Claim: the source stays Resident and open, the target goes Busy.
        let claim = {
            let mut st = desc.state.lock();
            let claim = BufferManager::shadow_claim(&desc, &mut st, src_dram, src, merge)
                .expect("an open word is claimable");
            assert!(*st.shadow_mut(src_dram), "{ctx}: flag raised");
            assert_eq!(
                slot(st.slot_mut(src_dram)),
                Slot::Resident(row.src),
                "{ctx}: source in window"
            );
            if merge.is_some() {
                assert_eq!(slot(&st.nvm), Slot::Busy(D), "{ctx}: target");
            }
            claim
        };
        assert!(word.is_open(), "{ctx}: claim keeps the word open");
        let version0 = word.version();

        // The destination the mover would have produced.
        let end = match row.mv {
            Move::Promote => {
                let f = bm.alloc_frame(true).unwrap();
                bm.tier1_pool().set_owner(f, pid);
                ShadowEnd::Promote(Some(f))
            }
            Move::EvictAdmit => {
                let f = bm.alloc_frame(false).unwrap();
                bm.nvm_pool().write_frame_header(f, pid).unwrap();
                bm.nvm_pool().set_owner(f, pid);
                ShadowEnd::Evict(Some(f))
            }
            Move::EvictMerge | Move::EvictToSsd => ShadowEnd::Evict(None),
            Move::NvmWriteBack => ShadowEnd::WriteBack,
            Move::DramFlush => ShadowEnd::Flush,
            Move::DramHome => {
                // After a good write and sync the mover clears the shadowed
                // copy's header; a failed I/O never gets that far.
                if window != Window::IoFailed {
                    bm.nvm_pool().clear_frame_header(nvm.unwrap()).unwrap();
                }
                ShadowEnd::Home(nvm)
            }
        };
        match window {
            Window::RacedWrite => word.bump_version(),
            Window::ReaderDraining => {
                assert!(matches!(word.try_pin(), PinAttempt::Pinned(_)), "{ctx}")
            }
            Window::Quiet | Window::IoFailed => {}
        }

        let committed = bm.shadow_finish(&desc, claim, end, window != Window::IoFailed);
        assert_eq!(committed, window == Window::Quiet, "{ctx}: outcome");

        {
            let st = desc.state.lock();
            assert!(!st.shadow_dram && !st.shadow_nvm, "{ctx}: claim released");
            assert_eq!(slot(&st.dram), row.dram, "{ctx}: dram slot");
            assert_eq!(slot(&st.nvm), row.nvm, "{ctx}: nvm slot");
        }
        assert_eq!(desc.dram_pin.is_open(), row.dram_open, "{ctx}: dram word");
        assert_eq!(desc.nvm_pin.is_open(), row.nvm_open, "{ctx}: nvm word");
        let (dram_free, nvm_free) = bm.free_frames();
        assert_eq!(
            dram_free as isize - dram_free0 as isize,
            row.dram_free,
            "{ctx}: dram frames"
        );
        assert_eq!(
            nvm_free as isize - nvm_free0 as isize,
            row.nvm_free,
            "{ctx}: nvm frames"
        );
        let adoptable = |f: FrameId| {
            let headers = bm.nvm_pool().scan_frame_headers();
            headers.iter().any(|(frame, _)| *frame == f)
        };
        if let (ShadowEnd::Evict(Some(f)), false) = (end, committed) {
            assert!(
                !adoptable(f),
                "{ctx}: aborted admission left a header recovery would adopt"
            );
        }
        if let ShadowEnd::Home(Some(f)) = end {
            assert_eq!(
                adoptable(f),
                window == Window::IoFailed,
                "{ctx}: recovery adopts the shadowed copy iff it stayed"
            );
        }
        // A failed I/O never reaches the word, and a flush never closes
        // it: the version does not move.
        let untouched = window == Window::IoFailed
            || (matches!(end, ShadowEnd::Flush | ShadowEnd::Home(_))
                && window != Window::RacedWrite);
        if untouched {
            assert_eq!(word.version(), version0, "{ctx}: word untouched");
        }

        // Exactly one counter moves, on the row's path — none for a
        // failed I/O, which is not a protocol outcome.
        let m = bm.metrics();
        let mut commits = [0u64; 3];
        let mut aborts = [0u64; 3];
        match window {
            Window::Quiet => commits[row.path as usize] = 1,
            Window::IoFailed => {}
            _ => aborts[row.path as usize] = 1,
        }
        assert_eq!(m.shadow_commits, commits, "{ctx}: commit counters");
        assert_eq!(m.shadow_aborts, aborts, "{ctx}: abort counters");
        assert_eq!(m.migrations_aborted, aborts.iter().sum::<u64>(), "{ctx}");
        let dropped = row.mv == Move::DramHome && window != Window::IoFailed;
        assert_eq!(m.nvm_home_drops, u64::from(dropped), "{ctx}: home drops");

        // Drop the pins the scenario (or a committed promotion's guard)
        // holds; the table-wide word/slot invariants must then hold.
        if window == Window::ReaderDraining {
            word.unpin();
        }
        if committed && row.mv == Move::Promote {
            assert_eq!(desc.dram_pin.pins(), 1, "{ctx}: the promoter's pin");
            desc.dram_pin.unpin();
        }
        bm.assert_quiescent();
    }

    #[test]
    fn shadow_finish_transition_table() {
        for row in &TABLE {
            for &window in row.windows {
                run(row, window);
            }
        }
    }

    #[test]
    fn promotion_without_a_frame_is_a_counted_abort() {
        for (io_ok, counted) in [(true, 1), (false, 0)] {
            let bm = manager();
            let pid = bm.allocate_page().unwrap();
            let desc = bm.descriptor(pid).unwrap();
            let src = install(&bm, &desc, false, Dirt::Data);
            let claim = {
                let mut st = desc.state.lock();
                BufferManager::shadow_claim(&desc, &mut st, false, src, None).unwrap()
            };
            let version0 = desc.nvm_pin.version();
            assert!(!bm.shadow_finish(&desc, claim, ShadowEnd::Promote(None), io_ok));
            assert_eq!(desc.nvm_pin.version(), version0, "word never closed");
            assert_eq!(bm.metrics().shadow_aborts[Promote as usize], counted);
            bm.assert_quiescent();
        }
    }

    /// The invariant `SharedPageDesc`'s latch rests on (`descriptor.rs`,
    /// "Identity"): a pid keeps one descriptor through eviction, reload
    /// and an aborted shadow move, and loses it only to a crash.
    #[test]
    fn descriptor_identity_survives_tier_moves() {
        let bm = manager();
        let pid = bm.allocate_page().unwrap();
        let desc = bm.descriptor(pid).unwrap();
        let same = |when: &str| {
            let now = bm.mapping.get(&pid.0).expect(when);
            assert!(Arc::ptr_eq(&now, &desc), "descriptor replaced {when}");
        };
        // Load, then churn both pools (8 + 8 frames) until the page is out.
        bm.fetch_write(pid).unwrap().write_u64(0, 7).unwrap();
        same("after the load");
        for _ in 0..40 {
            let other = bm.allocate_page().unwrap();
            bm.fetch_write(other).unwrap().write_u64(0, 1).unwrap();
        }
        {
            let st = desc.state.lock();
            assert!(st.dram.is_none() && st.nvm.is_none(), "evicted to SSD");
        }
        same("after the eviction");
        assert_eq!(bm.fetch_read(pid).unwrap().read_u64(0).unwrap(), 7);
        same("after the reload");
        // An aborted shadow move (a write raced its copy window).
        let (dram, src) = {
            let st = desc.state.lock();
            match (&st.dram, &st.nvm) {
                (Some(CopyState::Resident { frame, .. }), _) => (true, frame.frame()),
                (None, Some(CopyState::Resident { frame, .. })) => (false, frame.frame()),
                other => panic!("reloaded page is resident somewhere: {other:?}"),
            }
        };
        let claim = {
            let mut st = desc.state.lock();
            BufferManager::shadow_claim(&desc, &mut st, dram, src, None).unwrap()
        };
        desc.pin_word(dram).bump_version();
        assert!(!bm.shadow_finish(&desc, claim, ShadowEnd::Flush, true));
        same("after the shadow abort");
        // Only a crash drops it; the page's next fetch builds a new one.
        bm.simulate_crash();
        assert!(bm.mapping.get(&pid.0).is_none());
        drop(bm.fetch_read(pid).unwrap());
        let rebuilt = bm.mapping.get(&pid.0).unwrap();
        assert!(!Arc::ptr_eq(&rebuilt, &desc));
    }

    #[test]
    fn closed_nvm_word_declines_the_claim() {
        // A DRAM copy shadows the NVM copy: its word is closed, and the
        // caller falls back to the exclusive claim.
        let bm = manager();
        let pid = bm.allocate_page().unwrap();
        let desc = bm.descriptor(pid).unwrap();
        let nvm = install(&bm, &desc, false, Dirt::Data);
        install(&bm, &desc, true, Dirt::Clean);
        let mut st = desc.state.lock();
        assert!(BufferManager::shadow_claim(&desc, &mut st, false, nvm, None).is_none());
        assert!(!st.shadow_nvm, "a declined claim changes nothing");
    }
}
