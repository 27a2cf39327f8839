//! Making room: frame allocation with inline eviction fallback, DRAM and
//! NVM eviction, and the staged NVM → SSD batch write-back of maintenance
//! cycles. Each eviction picks shadow or exclusive claim from the victim's
//! state (see `shadow`), and what it writes from the victim's [`Dirt`]: a
//! copy leaving the buffer tiers with hint dirt only is dropped like a
//! clean one.

use std::sync::Arc;

use spitfire_device::AccessPattern;
use spitfire_obs::{self as obs, Op};
use spitfire_sync::atomic::Ordering;

use super::maintain::watermark_frames;
use super::shadow::{Claim, ShadowEnd};
use super::{with_page_buf, BufferManager};
use crate::config::{DRAM_LOW_WATERMARK, NVM_LOW_WATERMARK};
use crate::descriptor::{CopyState, Dirt, FrameRef, PageState, SharedPageDesc};
use crate::error::BufferError;
use crate::io::{retry_device_io, retry_device_io_n, MAINT_RETRY_LIMIT};
use crate::policy::Coin;
use crate::types::{FrameId, MigrationPath, Tier};
use crate::Result;

/// An NVM copy claimed for write-back: descriptor, frame, and how it was
/// claimed.
pub(super) type ClaimedNvm = (Arc<SharedPageDesc>, FrameId, Claim);

impl BufferManager {
    /// Claim a frame in the requested pool. With maintenance workers
    /// running the free list is normally non-empty and this is a single
    /// bitmap pop; dipping below the low watermark kicks the workers, and
    /// an empty free list falls back to the inline eviction loop (counted
    /// as a backpressure fallback).
    pub(crate) fn alloc_frame(&self, dram: bool) -> Result<FrameId> {
        let pool = if dram {
            self.tier1_pool()
        } else {
            self.nvm_pool()
        };
        // relaxed: a stale reading of the flag only routes this alloc
        // through the wrong path (inline eviction vs. free-list pop);
        // both paths are correct on their own.
        if self.maint_active.load(Ordering::Relaxed) {
            if let Some(f) = pool.try_alloc() {
                let low = if dram {
                    DRAM_LOW_WATERMARK
                } else {
                    NVM_LOW_WATERMARK
                };
                if pool.free_frames() < watermark_frames(pool.n_frames(), low) {
                    self.kick_maintenance();
                }
                return Ok(f);
            }
            // Workers did not keep up: do the eviction inline, like before
            // the maintenance service existed.
            self.metrics.record_backpressure_fallback();
            self.kick_maintenance();
        }
        let budget = pool.n_frames() * 4 + 256;
        for attempt in 0..budget {
            if let Some(f) = pool.try_alloc() {
                return Ok(f);
            }
            if let Some(victim) = pool.next_victim() {
                self.try_evict_victim(dram, victim);
            }
            if attempt % 16 == 15 {
                std::thread::yield_now();
            }
        }
        Err(BufferError::NoFrames {
            tier: if dram { Tier::Dram } else { Tier::Nvm },
        })
    }

    /// Attempt to free `victim` in the given pool by evicting whatever
    /// occupies it. Returns `true` if the frame was freed.
    pub(super) fn try_evict_victim(&self, dram: bool, victim: FrameId) -> bool {
        let pool = if dram {
            self.tier1_pool()
        } else {
            self.nvm_pool()
        };
        match pool.owner(victim).map(|vpid| self.mapping.get(&vpid.0)) {
            Some(Some(desc)) if dram => self.try_evict_dram(&desc, victim),
            Some(Some(desc)) => self.try_evict_nvm(&desc, victim),
            Some(None) => false,
            // Owner-less frames are either mid-install (skip) or
            // mini-page slabs (evict member by member).
            None => dram && self.try_evict_slab(victim),
        }
    }

    /// Evict every mini page hosted by slab frame `victim`; frees the slab
    /// once its last occupant leaves.
    fn try_evict_slab(&self, victim: FrameId) -> bool {
        let Some(mini) = &self.mini else { return false };
        if !mini.is_slab(victim) {
            return false;
        }
        let mut freed_any = false;
        for pid in mini.members_of(victim) {
            if let Some(desc) = self.mapping.get(&pid.0) {
                freed_any |= self.try_evict_dram(&desc, victim);
            }
        }
        freed_any
    }

    /// Evict the DRAM copy of `desc` if it occupies `victim` and is
    /// evictable right now.
    fn try_evict_dram(&self, desc: &SharedPageDesc, victim: FrameId) -> bool {
        let Some(mut st) = desc.state.try_lock() else {
            return false;
        };
        if st.shadow_dram || st.shadow_nvm {
            // A shadow operation owns this page's transitions right now.
            return false;
        }
        let Some(CopyState::Resident { frame, dirt }) = &st.dram else {
            return false;
        };
        if frame.frame() != victim {
            return false;
        }
        let fref = frame.clone();
        let dirt = *dirt;
        let fine = !matches!(fref, FrameRef::Full(_));

        // Dirty full-frame copies take the shadow write-back: the device
        // write runs while the copy stays `Resident` and its word open, so
        // readers never stall behind it. Hint dirt goes the same way — it
        // moves to NVM like data — and only its SSD leg differs. Clean
        // copies are discarded without I/O (nothing to shadow) and
        // fine/mini copies are claimed exclusively (granule write-back
        // needs the mutex). A pinned copy is skipped before any I/O: the
        // move retires it, so its commit could only abort.
        if dirt != Dirt::Clean && !fine {
            if desc.dram_pin.pins() > 0 {
                return false;
            }
            return self.evict_dram_shadow(desc, st, victim, dirt);
        }

        // Stop pinners before committing to the eviction: a non-zero count
        // means readers are mid-access — re-open and pick another victim.
        // (Fine/mini copies never open the word; `close` just reports
        // their count.)
        let pins = desc.dram_pin.close();
        if pins > 0 {
            Self::reopen_dram_word(desc, &st);
            return false;
        }

        // A dirty fine-grained copy writes its dirty granules back into
        // the backing NVM copy, claimed here while we can still see it.
        let backing = if dirt != Dirt::Clean {
            match &st.nvm {
                // No guard can hold the NVM copy while a DRAM copy is
                // above it: fetches take the DRAM copy.
                Some(CopyState::Resident {
                    frame: nf,
                    dirt: nvm_dirt,
                }) => {
                    let nvm_frame = nf.frame();
                    let d = *nvm_dirt;
                    st.nvm = Some(CopyState::Busy {
                        frame: FrameRef::Full(nvm_frame),
                        dirt: d,
                    });
                    Some(nvm_frame)
                }
                other => {
                    debug_assert!(
                        other.is_some(),
                        "fine copies always have an NVM backing copy"
                    );
                    Self::reopen_dram_word(desc, &st);
                    return false; // skip this victim for now
                }
            }
        } else {
            None
        };
        st.dram = Some(CopyState::Busy {
            frame: fref.clone(),
            dirt,
        });
        drop(st);

        let evict_t = obs::op_start();
        let mig_t = obs::op_start();
        if let Some(nvm_frame) = backing {
            self.write_back_granules(&fref, nvm_frame);
        }
        self.release_dram_copy(desc, fref, backing);
        if backing.is_some() {
            self.metrics.record_migration(MigrationPath::DramToNvm);
            obs::record_since(Op::MigDramToNvm, mig_t);
        } else {
            // Clean copy (§3.3 — unmodified pages are simply discarded).
            self.metrics.record_discard();
        }
        self.metrics.record_dram_eviction();
        obs::record_since(Op::EvictDram, evict_t);
        true
    }

    /// Shadow-copy eviction of a dirty full-frame DRAM copy: the
    /// write-back I/O runs while the copy stays `Resident` and its pin
    /// word open, so hit-path readers never stall behind the device write.
    /// The destination is an existing NVM copy (merge), a freshly admitted
    /// NVM frame (coin flip `N_w` or admission queue), or — bypassing NVM
    /// (§3.4) — the SSD. A copy with only hint dirt (`dirt`) has nothing
    /// the SSD must keep, so its SSD leg is a drop: no write, the same
    /// commit. If the move aborts, the DRAM copy stays resident,
    /// dirty, and authoritative, and the destination bytes (which may be
    /// torn) are either re-marked dirty (merge) or left as an unsynced,
    /// superseded SSD image. Takes the descriptor lock held by
    /// [`Self::try_evict_dram`].
    fn evict_dram_shadow(
        &self,
        desc: &SharedPageDesc,
        mut st: parking_lot::MutexGuard<'_, PageState>,
        victim: FrameId,
        dirt: Dirt,
    ) -> bool {
        // A pre-existing NVM copy is the merge target, claimed along with
        // the source; one in transition means back off.
        let merge = match &st.nvm {
            Some(CopyState::Resident { frame: nf, .. }) => Some(nf.frame()),
            Some(_) => return false,
            None => None,
        };
        let Some(claim) = Self::shadow_claim(desc, &mut st, true, victim, merge) else {
            return false;
        };
        let admit = merge.is_none()
            && self.nvm.is_some()
            && if self.policy.uses_admission_queue() {
                self.admission
                    .as_ref()
                    .expect("queue exists when NVM pool exists")
                    .consider(desc.pid.0)
            } else {
                self.flip_coin(desc, Coin::Nw)
            };
        drop(st);

        let evict_t = obs::op_start();
        let mig_t = obs::op_start();
        let mut admitted = None;
        let io_ok = if let Some(nf) = merge {
            self.copy_frame(false, victim, nf, None).is_ok()
        } else {
            if admit {
                if let Ok(nf) = self.alloc_frame(false) {
                    if self.copy_frame(false, victim, nf, Some(desc.pid)).is_ok() {
                        self.nvm_pool().set_owner(nf, desc.pid);
                        admitted = Some(nf);
                    } else {
                        // Give the claimed frame back (scrubbing any
                        // partially-written header so recovery cannot
                        // adopt it) and fall back to the SSD leg.
                        let _ = self.nvm_pool().clear_frame_header(nf);
                        self.nvm_pool().free(nf);
                    }
                }
            }
            // The eviction write is left unsynced; durability barriers
            // (checkpoint, NVM write-back) sync before relying on SSD
            // images.
            admitted.is_some()
                || dirt == Dirt::Hint
                || self.write_dram_copy_to_ssd(desc, victim).is_ok()
        };
        if !self.shadow_finish(desc, claim, ShadowEnd::Evict(admitted), io_ok) {
            return false;
        }
        if merge.is_some() || admitted.is_some() {
            self.metrics.record_migration(MigrationPath::DramToNvm);
            obs::record_since(Op::MigDramToNvm, mig_t);
        } else if dirt == Dirt::Hint {
            self.metrics.record_hint_discard();
        } else {
            self.metrics.record_migration(MigrationPath::DramToSsd);
            obs::record_since(Op::MigDramToSsd, mig_t);
        }
        self.metrics.record_dram_eviction();
        obs::record_since(Op::EvictDram, evict_t);
        true
    }

    /// Write the full-frame DRAM copy in `frame` to `desc`'s SSD home
    /// (unsynced).
    pub(super) fn write_dram_copy_to_ssd(
        &self,
        desc: &SharedPageDesc,
        frame: FrameId,
    ) -> Result<()> {
        let page = self.config.page_size;
        with_page_buf(page, |buf| -> Result<()> {
            self.tier1_pool()
                .read(frame, 0, buf, AccessPattern::Sequential)?;
            retry_device_io(&self.metrics, "dram write-back", || {
                self.ssd.write_page(desc.pid.0, buf)
            })?;
            Ok(())
        })
    }

    /// Finish an exclusively claimed DRAM eviction: clear the DRAM slot,
    /// hand the `backing` NVM copy back (`Resident` with data dirt —
    /// granules were just written into it), free the frame or mini slot,
    /// notify.
    fn release_dram_copy(&self, desc: &SharedPageDesc, fref: FrameRef, backing: Option<FrameId>) {
        // Free the frame *after* clearing the slot so a racing fetch cannot
        // observe a freed frame id in a Resident state.
        let mut st = desc.state.lock();
        st.dram = None;
        if let Some(nvm_frame) = backing {
            st.nvm = Some(CopyState::Resident {
                frame: FrameRef::Full(nvm_frame),
                dirt: Dirt::Data,
            });
        }
        // With the DRAM copy gone, a surviving Resident NVM copy becomes
        // optimistically pinnable again.
        Self::reopen_nvm_word(desc, &st);
        desc.cond.notify_all();
        drop(st);
        match fref {
            FrameRef::Full(f) => self.tier1_pool().free(f),
            FrameRef::Fine(fp) => self.tier1_pool().free(fp.frame),
            FrameRef::Mini(mp) => {
                let mini = self.mini.as_ref().expect("mini slabs exist for mini pages");
                if mini.free_slot(mp.slot) {
                    self.tier1_pool().free(mp.slot.slab);
                }
            }
        }
    }

    /// Claim `victim`'s NVM copy for eviction or write-back: the copy must
    /// be `Resident`, unpinned and backing no partial DRAM copy, occupying
    /// `victim`. The pin check comes before any I/O because the move
    /// retires the copy: a pinned one could only abort at commit. `None`
    /// means back off and pick another victim. Returns the copy's dirt and
    /// how it was claimed (see [`Self::claim_nvm_copy`]).
    pub(super) fn claim_nvm_victim(
        &self,
        desc: &SharedPageDesc,
        victim: FrameId,
    ) -> Option<(Dirt, Claim)> {
        let mut st = desc.state.try_lock()?;
        if st.shadow_nvm || st.shadow_dram || backs_partial_copy(&st) {
            return None;
        }
        let Some(CopyState::Resident { frame, dirt }) = &st.nvm else {
            return None;
        };
        if frame.frame() != victim || desc.nvm_pin.pins() > 0 {
            return None;
        }
        let dirt = *dirt;
        Some((dirt, Self::claim_nvm_copy(desc, &mut st, victim, dirt)?))
    }

    /// Claim the `Resident`, unpinned NVM copy in `victim` (caller holds
    /// the descriptor mutex and saw no shadow operation in flight).
    ///
    /// A copy with *data* dirt whose word is open is shadow-claimed: the
    /// slot stays `Resident` and readers keep hitting it until
    /// [`Self::finish_nvm_claim`] resolves the claim once the SSD image is
    /// durable — nobody stalls behind the device write + sync. Copies with
    /// no I/O ahead of the retirement (clean, or hint dirt only) and copies
    /// whose word is already closed (a DRAM copy shadows them, so readers
    /// use DRAM and closing stalls nobody) are claimed exclusively: slot
    /// `Busy`, word closed. `None` means readers are mid-access: back
    /// off.
    pub(super) fn claim_nvm_copy(
        desc: &SharedPageDesc,
        st: &mut PageState,
        victim: FrameId,
        dirt: Dirt,
    ) -> Option<Claim> {
        if dirt == Dirt::Data {
            if let Some(claim) = Self::shadow_claim(desc, st, false, victim, None) {
                return Some(Claim::Shadow(claim));
            }
        }
        // Stop pinners; back off if any are mid-access. (The word is
        // already closed whenever a DRAM copy shadows this one.)
        if desc.nvm_pin.close() > 0 {
            Self::reopen_nvm_word(desc, st);
            return None;
        }
        st.nvm = Some(CopyState::Busy {
            frame: FrameRef::Full(victim),
            dirt,
        });
        Some(Claim::Exclusive)
    }

    /// Resolve a claimed NVM copy with data dirt after its write-back I/O.
    /// An accepted copy is left `Busy`, clean, word closed — exclusively
    /// held for [`Self::finish_nvm_eviction`]. A copy whose I/O failed, or
    /// whose shadow claim raced a write or a late reader, stays `Resident`
    /// with data dirt: the synced SSD image may be stale or torn, but the
    /// NVM bytes and frame header remain authoritative for both runtime
    /// reads and crash recovery. Returns whether the SSD image was
    /// accepted.
    fn finish_nvm_claim(
        &self,
        desc: &SharedPageDesc,
        victim: FrameId,
        claim: Claim,
        io_ok: bool,
    ) -> bool {
        match claim {
            Claim::Shadow(claim) => self.shadow_finish(desc, claim, ShadowEnd::WriteBack, io_ok),
            // Nobody could touch the `Busy` copy: the image is current.
            Claim::Exclusive => {
                if !io_ok {
                    self.restore_nvm_resident(desc, victim);
                }
                io_ok
            }
        }
    }

    /// Restore a claimed NVM copy to `Resident` with data dirt after a
    /// failed write-back, and wake waiters.
    fn restore_nvm_resident(&self, desc: &SharedPageDesc, victim: FrameId) {
        let mut st = desc.state.lock();
        st.nvm = Some(CopyState::Resident {
            frame: FrameRef::Full(victim),
            dirt: Dirt::Data,
        });
        Self::reopen_nvm_word(desc, &st);
        desc.cond.notify_all();
    }

    /// Retire a claimed NVM copy that owes the SSD nothing — clean, or
    /// holding hint dirt only (counted as a hint discard: its hints are
    /// lost here) — without I/O.
    pub(super) fn discard_nvm_copy(&self, desc: &SharedPageDesc, victim: FrameId, dirt: Dirt) {
        debug_assert_ne!(dirt, Dirt::Data, "page {}: data dropped", desc.pid);
        if dirt == Dirt::Hint {
            self.metrics.record_hint_discard();
        }
        self.finish_nvm_eviction(desc, victim);
    }

    /// Complete an NVM eviction whose content is already durable on SSD
    /// (a copy that owed the SSD nothing, or one written back and synced):
    /// clear the frame header, empty the slot, free the frame.
    pub(super) fn finish_nvm_eviction(&self, desc: &SharedPageDesc, victim: FrameId) {
        let _ = self.nvm_pool().clear_frame_header(victim);
        let mut st = desc.state.lock();
        st.nvm = None;
        desc.cond.notify_all();
        drop(st);
        self.nvm_pool().free(victim);
        self.metrics.record_nvm_eviction();
    }

    /// Evict the NVM copy of `desc` if it occupies `victim` and is
    /// evictable (paths ⑤ / discard).
    fn try_evict_nvm(&self, desc: &SharedPageDesc, victim: FrameId) -> bool {
        let Some((dirt, claim)) = self.claim_nvm_victim(desc, victim) else {
            return false;
        };
        let evict_t = obs::op_start();
        if dirt != Dirt::Data {
            self.discard_nvm_copy(desc, victim, dirt);
        } else {
            let mig_t = obs::op_start();
            let page = self.config.page_size;
            // The SSD image must be *synced* before the NVM frame header is
            // cleared: the header is what recovery uses to find this page in
            // NVM, so dropping it while the SSD copy is still in the volatile
            // write cache would lose the page on a crash. (Under a shadow
            // claim the bytes may additionally be torn by a racing writer —
            // the finish below discards the write-back in that case, and the
            // retained header keeps the NVM copy authoritative.)
            let res = with_page_buf(page, |buf| -> Result<()> {
                self.nvm_pool()
                    .read(victim, 0, buf, AccessPattern::Sequential)?;
                retry_device_io(&self.metrics, "nvm write-back", || {
                    self.ssd.write_page(desc.pid.0, buf)?;
                    self.ssd.sync()
                })?;
                Ok(())
            });
            if !self.finish_nvm_claim(desc, victim, claim, res.is_ok()) {
                return false;
            }
            self.metrics.record_migration(MigrationPath::NvmToSsd);
            obs::record_since(Op::MigNvmToSsd, mig_t);
            self.finish_nvm_eviction(desc, victim);
        }
        obs::record_since(Op::EvictNvm, evict_t);
        true
    }

    /// Evict a batch of *claimed* NVM copies with data dirt, writing them
    /// to SSD with a single fsync: the page images are staged in memory
    /// (batches are small — the maintenance default is 4 pages) and
    /// submitted as one sorted multi-page write
    /// ([`spitfire_device::SsdDevice::write_pages`] — coalesced into few
    /// large direct-I/O submissions on the file backend), then one sync
    /// barrier makes the whole batch durable, and only then is each claim
    /// resolved ([`Self::finish_nvm_claim`]) and each accepted copy evicted
    /// — frame header cleared, frame freed: the same
    /// sync-before-header-clear ordering as [`Self::try_evict_nvm`],
    /// amortized over the batch. The write fails fast
    /// ([`MAINT_RETRY_LIMIT`]). A failed read, write, or sync releases the
    /// affected claims with every copy still dirty (nothing was retired,
    /// so a retry is idempotent).
    ///
    /// Returns the number of evicted pages and the error, if any — the
    /// batch write/sync error, else the first failed read.
    pub(super) fn write_back_nvm_batch(
        &self,
        batch: Vec<ClaimedNvm>,
    ) -> (usize, Option<BufferError>) {
        let page = self.config.page_size;
        let mut first_err: Option<BufferError> = None;
        let mut staged: Vec<(ClaimedNvm, Vec<u8>)> = Vec::with_capacity(batch.len());
        for (desc, victim, claim) in batch {
            let mut buf = vec![0u8; page];
            match self
                .nvm_pool()
                .read(victim, 0, &mut buf, AccessPattern::Sequential)
            {
                Ok(()) => staged.push(((desc, victim, claim), buf)),
                Err(e) => {
                    self.finish_nvm_claim(&desc, victim, claim, false);
                    first_err.get_or_insert(e);
                }
            }
        }
        if staged.is_empty() {
            return (0, first_err);
        }
        let mut submission: Vec<(u64, &[u8])> = staged
            .iter()
            .map(|((desc, _, _), buf)| (desc.pid.0, buf.as_slice()))
            .collect();
        let res = retry_device_io_n(
            &self.metrics,
            "nvm batch write-back",
            MAINT_RETRY_LIMIT,
            || self.ssd.write_pages(&mut submission).map(|_| ()),
        )
        .and_then(|()| retry_device_io(&self.metrics, "nvm batch sync", || self.ssd.sync()));
        drop(submission);
        let mut n = 0usize;
        for ((desc, victim, claim), _) in staged {
            if self.finish_nvm_claim(&desc, victim, claim, res.is_ok()) {
                self.metrics.record_migration(MigrationPath::NvmToSsd);
                self.finish_nvm_eviction(&desc, victim);
                n += 1;
            }
        }
        self.metrics.record_maint_writebacks(n as u64);
        (n, res.err().or(first_err))
    }
}

/// Whether the NVM copy backs a fine-grained or mini DRAM copy, which
/// loads its missing granules from it: such a copy holds no pin, but must
/// not be evicted from under the partial copy.
fn backs_partial_copy(st: &PageState) -> bool {
    matches!(
        &st.dram,
        Some(CopyState::Resident { frame, .. } | CopyState::Busy { frame, .. })
            if !matches!(frame, FrameRef::Full(_))
    )
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{fine_manager, install, manager};
    use super::*;

    #[test]
    fn nvm_eviction_refuses_a_copy_backing_a_fine_copy() {
        let bm = fine_manager();
        let pid = bm.allocate_page().unwrap();
        drop(bm.fetch_read(pid).unwrap()); // SSD → NVM
        drop(bm.fetch_read(pid).unwrap()); // a fine DRAM copy over it
        let desc = bm.mapping.get(&pid.0).unwrap();
        let (dram, nvm) = {
            let st = desc.state.lock();
            assert!(backs_partial_copy(&st));
            match (&st.dram, &st.nvm) {
                (
                    Some(CopyState::Resident { frame: d, .. }),
                    Some(CopyState::Resident { frame: n, .. }),
                ) => (d.frame(), n.frame()),
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(desc.nvm_pin.pins(), 0, "no count on the backing copy");
        assert!(bm.claim_nvm_victim(&desc, nvm).is_none());
        assert!(!bm.try_evict_victim(false, nvm));
        // Once the fine copy is gone, the NVM copy is a victim like any.
        assert!(bm.try_evict_victim(true, dram));
        assert!(bm.try_evict_victim(false, nvm));
        bm.assert_quiescent();
    }

    #[test]
    fn a_pinned_dirty_dram_victim_costs_no_write() {
        for over_nvm in [false, true] {
            let bm = manager();
            let pid = bm.allocate_page().unwrap();
            let desc = bm.descriptor(pid).unwrap();
            if over_nvm {
                install(&bm, &desc, false, Dirt::Clean);
            }
            let dram = install(&bm, &desc, true, Dirt::Data);
            {
                let _st = desc.state.lock();
                desc.dram_pin.pin_locked();
            }
            let writes = || {
                let ssd = bm.ssd.stats().snapshot().write_ops;
                (ssd, bm.nvm_pool().device_stats().snapshot().write_ops)
            };
            let (w0, m0) = (writes(), bm.metrics());
            assert!(!bm.try_evict_victim(true, dram), "over NVM: {over_nvm}");
            assert_eq!(writes(), w0, "over NVM: {over_nvm}");
            let d = bm.metrics().delta(&m0);
            assert_eq!(d.migrations_aborted, 0, "skipped, never started");
            desc.dram_pin.unpin();
            assert!(bm.try_evict_victim(true, dram), "over NVM: {over_nvm}");
            bm.assert_quiescent();
        }
    }
}
