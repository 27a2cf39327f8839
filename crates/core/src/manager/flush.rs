//! Write-backs that leave the page resident: the checkpointer's home
//! flush, and the single-page `flush_page`, whose callers are the
//! `migration` bench and core tests.

use std::sync::Arc;

use super::shadow::{ShadowClaim, ShadowEnd};
use super::BufferManager;
use crate::descriptor::{CopyState, Dirt, FrameRef, SharedPageDesc};
use crate::io::retry_device_io;
use crate::types::{FrameId, PageId};
use crate::Result;

/// What a home flush did: the DRAM copies it wrote to their SSD homes, and
/// the dirty ones it had to leave behind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HomeFlush {
    /// DRAM copies written home and synced — raced and pinned ones
    /// included: their image holds every change made before the flush
    /// began. A pinned copy stays dirty, since a guard may still write it.
    pub written: usize,
    /// Pages whose DRAM copy holds data dirt the flush could not claim: a
    /// shadow move in flight, a busy NVM copy, or a fine-grained or
    /// mini-page frame. A pin alone never leaves a page behind.
    pub left_behind: Vec<PageId>,
}

/// Why a DRAM copy was not claimed for a flush.
enum Skip {
    /// No data dirt: nothing the SSD must hold.
    NotDirty,
    /// Data dirt, but the copy cannot be claimed right now.
    Busy,
}

/// A DRAM copy shadow-claimed for a flush: its descriptor and frame, the
/// NVM copy it shadows (if any), and the claim.
type ClaimedDram = (Arc<SharedPageDesc>, FrameId, Option<FrameId>, ShadowClaim);

impl BufferManager {
    /// [`Self::flush_home`] over every mapped page.
    pub fn flush_all_dirty(&self) -> Result<HomeFlush> {
        let mut pids = Vec::new();
        self.mapping.for_each(|pid, _| pids.push(PageId(*pid)));
        self.flush_home(&pids)
    }

    /// The checkpointer's flush (paper §5.2 Recovery: DRAM pages are
    /// flushed so the log can be truncated; NVM pages are not, because NVM
    /// is persistent). Each of `pids` whose DRAM copy holds data dirt is
    /// written to its SSD home and synced, without being evicted. An NVM
    /// copy the DRAM copy shadowed is older than home from then on, so it
    /// is dropped — its frame header cleared and persisted, its frame
    /// freed — which costs the NVM 16 bytes where reconciling the page
    /// into it would cost a page. NVM-resident dirt stays where it is:
    /// recovery adopts it.
    ///
    /// A write that races the copy leaves the DRAM copy dirty but still
    /// counts as written: the home image holds every change made before
    /// the flush began, so the shadowed NVM copy goes all the same. Copies
    /// that cannot be claimed are skipped, never waited on, and reported
    /// in [`HomeFlush::left_behind`]; an I/O error stops the flush and
    /// leaves the failed page's copies as they were.
    pub fn flush_home(&self, pids: &[PageId]) -> Result<HomeFlush> {
        let mut out = HomeFlush::default();
        for &pid in pids {
            let (desc, frame, nvm, claim) = match self.claim_flush(pid, false) {
                Ok(claimed) => claimed,
                Err(Skip::NotDirty) => continue,
                Err(Skip::Busy) => {
                    out.left_behind.push(pid);
                    continue;
                }
            };
            // The shadowed copy's header goes only once the home image is
            // durable: until then it is what recovery must adopt.
            let res = self
                .write_dram_copy_to_ssd(&desc, frame)
                .and_then(|()| retry_device_io(&self.metrics, "home sync", || self.ssd.sync()))
                .and_then(|()| nvm.map_or(Ok(()), |nf| self.nvm_pool().clear_frame_header(nf)));
            self.shadow_finish(&desc, claim, ShadowEnd::Home(nvm), res.is_ok());
            res?;
            out.written += 1;
        }
        Ok(out)
    }

    /// Make `pid`'s dirty DRAM copy durable without evicting it. No
    /// database path calls it; its last callers are the `migration`
    /// bench's flush storm and core tests. The copy is reconciled into
    /// the page's NVM copy when there is one (NVM is persistent, and a
    /// stale NVM copy left beside a clean DRAM copy would shadow it once
    /// the DRAM copy is discarded), else written to SSD and synced.
    /// Returns `true` if the copy went clean; copies that cannot be
    /// claimed, copies with hint dirt only and raced flushes report
    /// `false` and stay dirty.
    pub fn flush_page(&self, pid: PageId) -> Result<bool> {
        let Ok((desc, frame, nvm, claim)) = self.claim_flush(pid, true) else {
            return Ok(false);
        };
        let res = match nvm {
            Some(nf) => self.copy_frame(false, frame, nf, None),
            None => self
                .write_dram_copy_to_ssd(&desc, frame)
                .and_then(|()| retry_device_io(&self.metrics, "flush sync", || self.ssd.sync())),
        };
        // The copy goes clean only if the flushed image is provably untorn;
        // on an I/O failure it stays dirty (nothing was lost) and the error
        // propagates.
        let clean = self.shadow_finish(&desc, claim, ShadowEnd::Flush, res.is_ok());
        res?;
        Ok(clean)
    }

    /// Shadow-claim `pid`'s DRAM copy for a flush: it must hold data dirt
    /// in a full frame, on a page with no shadow move in flight and an NVM
    /// copy, if any, that is `Resident`. With `merge` that NVM copy
    /// becomes the claim's merge target. The word stays open, so readers
    /// never stall behind the flush's I/O. A pinned copy is claimed all
    /// the same: unlike a retiring move, a flush has something to show for
    /// its I/O whatever the commit says (`flush_home` counts the image
    /// written), and the copy just stays dirty.
    fn claim_flush(&self, pid: PageId, merge: bool) -> std::result::Result<ClaimedDram, Skip> {
        let desc = self.mapping.get(&pid.0).ok_or(Skip::NotDirty)?;
        let mut st = desc.state.lock();
        let dirty = matches!(
            &st.dram,
            Some(CopyState::Resident { dirt, .. } | CopyState::Busy { dirt, .. }) if *dirt == Dirt::Data
        );
        if !dirty {
            return Err(Skip::NotDirty);
        }
        // A shadow move owns the page's transitions right now.
        if st.shadow_dram || st.shadow_nvm {
            return Err(Skip::Busy);
        }
        let Some(CopyState::Resident {
            frame: FrameRef::Full(frame),
            ..
        }) = st.dram
        else {
            return Err(Skip::Busy);
        };
        let nvm = match &st.nvm {
            None => None,
            Some(CopyState::Resident { frame: nf, .. }) => Some(nf.frame()),
            Some(_) => return Err(Skip::Busy),
        };
        let target = if merge { nvm } else { None };
        let claim = Self::shadow_claim(&desc, &mut st, true, frame, target).ok_or(Skip::Busy)?;
        drop(st);
        Ok((desc, frame, nvm, claim))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{fine_manager, install, manager};
    use super::*;

    /// A page whose DRAM copy holds data dirt over a clean NVM copy.
    fn dirty_over_nvm() -> (BufferManager, Arc<SharedPageDesc>) {
        let bm = manager();
        let pid = bm.allocate_page().unwrap();
        let desc = bm.descriptor(pid).unwrap();
        install(&bm, &desc, false, Dirt::Clean);
        install(&bm, &desc, true, Dirt::Data);
        (bm, desc)
    }

    /// The flush leaves the page behind, touching nothing; once `release`
    /// has run, it writes the page home.
    fn left_behind_until(bm: &BufferManager, desc: &SharedPageDesc, release: impl FnOnce()) {
        let pid = desc.pid;
        let ssd0 = bm.ssd.stats().snapshot().write_ops;
        let flush = bm.flush_home(&[pid]).unwrap();
        assert_eq!(flush.left_behind, vec![pid]);
        assert_eq!(flush.written, 0);
        assert_eq!(bm.ssd.stats().snapshot().write_ops, ssd0, "no I/O");
        assert_eq!(bm.metrics().nvm_home_drops, 0);
        release();
        let flush = bm.flush_home(&[pid]).unwrap();
        assert_eq!((flush.written, flush.left_behind), (1, Vec::new()));
        bm.assert_quiescent();
    }

    #[test]
    fn a_shadow_move_in_flight_is_left_behind() {
        let (bm, desc) = dirty_over_nvm();
        let dram = match &desc.state.lock().dram {
            Some(CopyState::Resident { frame, .. }) => frame.frame(),
            other => panic!("{other:?}"),
        };
        // An eviction's claim, as a `Maintenance` worker would hold it.
        let claim = {
            let mut st = desc.state.lock();
            BufferManager::shadow_claim(&desc, &mut st, true, dram, None).unwrap()
        };
        left_behind_until(&bm, &desc, || {
            assert!(!bm.shadow_finish(&desc, claim, ShadowEnd::Evict(None), false));
        });
    }

    /// A guard the slow path pinned (a writer's, say) does not hold the
    /// flush up: the copy is written home, its shadowed NVM copy dropped,
    /// and it stays dirty until a flush finds it unpinned.
    #[test]
    fn a_pinned_copy_is_written_and_stays_dirty() {
        let (bm, desc) = dirty_over_nvm();
        let pid = desc.pid;
        {
            let _st = desc.state.lock();
            desc.dram_pin.pin_locked();
        }
        let ssd0 = bm.ssd.stats().snapshot().write_ops;
        let flush = bm.flush_home(&[pid]).unwrap();
        assert_eq!((flush.written, flush.left_behind), (1, Vec::new()));
        assert_eq!(bm.ssd.stats().snapshot().write_ops, ssd0 + 1);
        assert_eq!(bm.metrics().nvm_home_drops, 1);
        assert!(desc.state.lock().nvm.is_none(), "the shadowed copy went");
        assert_eq!(bm.dirty_pages(), (1, 0), "data dirt kept under the pin");
        desc.dram_pin.unpin();
        let flush = bm.flush_home(&[pid]).unwrap();
        assert_eq!((flush.written, flush.left_behind), (1, Vec::new()));
        assert_eq!(bm.dirty_pages(), (0, 0));
        bm.assert_quiescent();
    }

    #[test]
    fn a_busy_nvm_copy_is_left_behind() {
        let (bm, desc) = dirty_over_nvm();
        let make = |busy: bool| {
            let mut st = desc.state.lock();
            let Some(CopyState::Resident { frame, dirt, .. } | CopyState::Busy { frame, dirt, .. }) =
                st.nvm.take()
            else {
                panic!("no NVM copy");
            };
            st.nvm = Some(if busy {
                CopyState::Busy { frame, dirt }
            } else {
                CopyState::Resident { frame, dirt }
            });
        };
        make(true);
        left_behind_until(&bm, &desc, || make(false));
        assert!(desc.state.lock().nvm.is_none(), "then dropped");
    }

    #[test]
    fn a_failed_home_write_or_sync_keeps_the_nvm_copy_adoptable() {
        use spitfire_device::{
            DeviceKind, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule,
        };
        for op in [FaultOp::Write, FaultOp::Sync] {
            let (bm, desc) = dirty_over_nvm();
            let nvm = match &desc.state.lock().nvm {
                Some(CopyState::Resident { frame, .. }) => frame.frame(),
                other => panic!("{other:?}"),
            };
            let adoptable = || {
                let headers = bm.nvm_pool().scan_frame_headers();
                headers.iter().any(|&(f, pid)| (f, pid) == (nvm, desc.pid))
            };
            let rule = FaultRule::any(spitfire_device::Trigger::Always, FaultKind::Fatal)
                .on_device(DeviceKind::Ssd)
                .on_op(op);
            let plan = FaultPlan::new(1).rule(rule);
            bm.admin()
                .set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
            assert!(bm.flush_home(&[desc.pid]).is_err(), "{op:?}");
            // Until the home image is durable, the NVM copy is what
            // recovery must find.
            assert!(adoptable(), "{op:?}");
            {
                let st = desc.state.lock();
                assert!(matches!(
                    st.dram,
                    Some(CopyState::Resident {
                        dirt: Dirt::Data,
                        ..
                    })
                ));
                assert!(matches!(st.nvm, Some(CopyState::Resident { .. })));
            }
            bm.admin().set_fault_injector(None);
            assert_eq!(bm.flush_home(&[desc.pid]).unwrap().written, 1);
            assert!(!adoptable(), "{op:?}: dropped once home");
            bm.assert_quiescent();
        }
    }

    #[test]
    fn a_fine_grained_copy_is_left_behind() {
        let bm = fine_manager();
        let pid = bm.allocate_page().unwrap();
        drop(bm.fetch_read(pid).unwrap()); // SSD → NVM
        bm.fetch_write(pid).unwrap().write_u64(0, 7).unwrap(); // fine DRAM copy
        assert_eq!(bm.dirty_pages().0, 1);
        let flush = bm.flush_all_dirty().unwrap();
        assert_eq!((flush.written, flush.left_behind), (0, vec![pid]));
    }
}
