//! Write-backs that leave the page resident: the checkpointer's DRAM
//! flush and the batched NVM flush that lets the WAL truncate past
//! NVM-resident dirty pages.

use super::evict::ClaimedNvm;
use super::shadow::ShadowEnd;
use super::BufferManager;
use crate::descriptor::{CopyState, Dirt, FrameRef};
use crate::io::retry_device_io;
use crate::types::PageId;
use crate::Result;

impl BufferManager {
    /// Write back up to `max` dirty NVM-resident pages to SSD in one batch
    /// (single fsync), marking them clean but keeping them resident. This
    /// is what lets the WAL truncate past NVM-resident dirty pages: after
    /// the sync their SSD images are durable, so replay no longer needs
    /// the log records that produced them. Copies with hint dirt only are
    /// left alone (nothing the SSD must hold), and so are pages whose DRAM
    /// copy has data dirt (or is in transition) — [`Self::flush_page`]
    /// reconciles those into NVM first. Returns the number written.
    pub fn flush_nvm_dirty(&self, max: usize) -> Result<usize> {
        if self.nvm.is_none() || max == 0 {
            return Ok(0);
        }
        let mut pids = Vec::new();
        self.mapping.for_each(|pid, _| pids.push(*pid));
        let mut claimed: Vec<ClaimedNvm> = Vec::new();
        for pid in pids {
            if claimed.len() >= max {
                break;
            }
            let Some(desc) = self.mapping.get(&pid) else {
                continue;
            };
            let Some(mut st) = desc.state.try_lock() else {
                continue;
            };
            if st.shadow_nvm || st.shadow_dram {
                continue;
            }
            // A dirty or transitioning DRAM copy shadows the NVM bytes.
            // Hint dirt does not: its data part equals the NVM copy.
            let shadowed = match &st.dram {
                Some(CopyState::Resident { dirt, .. }) => *dirt == Dirt::Data,
                Some(_) => true,
                None => false,
            };
            if shadowed {
                continue;
            }
            let Some(CopyState::Resident {
                frame,
                pins: 0,
                dirt: Dirt::Data,
            }) = &st.nvm
            else {
                continue;
            };
            let victim = frame.frame();
            // Shadow claim where the word is open (the copy stays readable
            // for the whole batch write + sync); exclusive where a clean
            // DRAM copy already shadows it.
            let Some(claim) = Self::claim_nvm_copy(&desc, &mut st, victim, Dirt::Data) else {
                continue;
            };
            drop(st);
            claimed.push((desc, victim, claim));
        }
        if claimed.is_empty() {
            return Ok(0);
        }
        match self.write_back_nvm_batch(claimed, false) {
            (_, Some(e)) => Err(e),
            (n, None) => Ok(n),
        }
    }

    /// Write the dirty DRAM copy of `pid` down to SSD without evicting it
    /// (checkpointer; paper §5.2 Recovery: DRAM pages are flushed for log
    /// truncation, NVM pages are not because NVM is persistent). Returns
    /// `true` if a flush happened; pinned or busy pages, and copies with
    /// hint dirt only, are skipped.
    pub fn flush_page(&self, pid: PageId) -> Result<bool> {
        let Some(desc) = self.mapping.get(&pid.0) else {
            return Ok(false);
        };
        let mut st = desc.state.lock();
        if st.shadow_dram || st.shadow_nvm {
            // A shadow operation owns this page's transitions right now;
            // the checkpointer will come back.
            return Ok(false);
        }
        let Some(CopyState::Resident {
            frame,
            pins: 0,
            dirt: Dirt::Data,
        }) = &st.dram
        else {
            return Ok(false);
        };
        let FrameRef::Full(frame) = *frame else {
            // Fine-grained copies flush through their NVM backing on
            // eviction; the NVM copy is persistent already.
            return Ok(false);
        };
        // If the page also has an NVM copy, reconcile into NVM instead of
        // SSD — the NVM copy may be stale relative to DRAM, and leaving it
        // stale-dirty would shadow the flushed version after the clean DRAM
        // copy is discarded. This also matches the paper's recovery
        // protocol: NVM-resident modified pages are not flushed to SSD
        // because NVM is persistent.
        let nvm_target = match &st.nvm {
            Some(CopyState::Resident {
                frame: nf, pins: 0, ..
            }) => Some(nf.frame()),
            Some(_) => return Ok(false), // NVM copy pinned or in transition
            None => None,
        };
        // Shadow flush: write the copy down without ever closing its pin
        // word, so hit-path readers never stall behind the checkpointer's
        // device write + sync.
        let Some(claim) = Self::shadow_claim(&desc, &mut st, true, frame, nvm_target) else {
            return Ok(false);
        };
        drop(st);
        let res = match nvm_target {
            Some(nf) => self.copy_frame(false, frame, nf, None),
            // A flush is a durability point (checkpoints and catalog writes
            // rely on it), so it must survive a crash: sync.
            None => self
                .write_dram_copy_to_ssd(&desc, frame)
                .and_then(|()| retry_device_io(&self.metrics, "flush sync", || self.ssd.sync())),
        };
        // The copy goes clean only if the flushed image is provably untorn.
        // A raced flush is reported as *not flushed*: the synced SSD image
        // may be torn or stale and must not let the WAL truncate past this
        // page. On an I/O failure the copy stays dirty (nothing was lost)
        // and the error propagates to the checkpointer.
        let clean = self.shadow_finish(&desc, claim, ShadowEnd::Flush, res.is_ok());
        res?;
        Ok(clean)
    }

    /// Flush every dirty, unpinned DRAM page to SSD. Returns the number of
    /// pages flushed.
    pub fn flush_all_dirty(&self) -> Result<usize> {
        let mut pids = Vec::new();
        self.mapping.for_each(|pid, _| pids.push(PageId(*pid)));
        let mut flushed = 0;
        for pid in pids {
            if self.flush_page(pid)? {
                flushed += 1;
            }
        }
        Ok(flushed)
    }
}
