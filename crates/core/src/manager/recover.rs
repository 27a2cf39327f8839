//! Crash simulation and the buffer manager's part of recovery (paper
//! §5.2 Recovery): NVM-scan mapping rebuild and page-id allocator
//! restoration.

use std::sync::Arc;

use spitfire_sync::atomic::Ordering;

use super::BufferManager;
use crate::descriptor::{CopyState, Dirt, FrameRef, SharedPageDesc};
use crate::types::{FrameId, PageId};
use crate::Result;

impl BufferManager {
    /// Simulate a process crash with power loss: volatile state (mapping
    /// table, DRAM buffer) is discarded and un-persisted NVM writes are
    /// rolled back. Only meaningful with
    /// [`spitfire_device::PersistenceTracking::Full`].
    pub fn simulate_crash(&self) {
        self.mapping.clear();
        // Release-bump *after* clearing: a fast path that observes the new
        // epoch (Acquire) also observes the cleared table and cannot
        // re-cache a dead descriptor under it.
        self.cache_epoch.fetch_add(1, Ordering::Release);
        self.ssd.simulate_crash();
        if let Some(t1) = &self.tier1 {
            for i in 0..t1.n_frames() {
                let f = FrameId(i as u32);
                if t1.owner(f).is_some() {
                    t1.free(f);
                }
            }
        }
        if let Some(nvm) = &self.nvm {
            if let Some(dev) = nvm.nvm_device() {
                dev.simulate_crash();
            }
            for i in 0..nvm.n_frames() {
                let f = FrameId(i as u32);
                if nvm.owner(f).is_some() {
                    nvm.free(f);
                }
            }
        }
    }

    /// Rebuild the mapping table from the persistent NVM buffer (paper
    /// §5.2 Recovery, step 1: "scanning the NVM buffer to collect the page
    /// ids and to construct the mapping table"). Returns the recovered page
    /// ids. NVM-resident pages get data dirt: they may be newer than their
    /// SSD counterparts, and whether by hints only is not recorded.
    pub fn recover_nvm_buffer(&self) -> Vec<PageId> {
        let Some(nvm) = &self.nvm else {
            return Vec::new();
        };
        let mut recovered = Vec::new();
        for (frame, pid) in nvm.scan_frame_headers() {
            nvm.adopt(frame, pid);
            let desc = self
                .mapping
                .get_or_insert_with(pid.0, || Arc::new(SharedPageDesc::new(pid)));
            let mut st = desc.state.lock();
            st.nvm = Some(CopyState::Resident {
                frame: FrameRef::Full(frame),
                dirt: Dirt::Data,
            });
            // Recovered pages have no DRAM copy: optimistically pinnable.
            desc.nvm_pin.open(frame.0);
            recovered.push(pid);
            // Ensure the allocator never re-issues a recovered id.
            self.next_pid.fetch_max(pid.0 + 1, Ordering::AcqRel);
        }
        recovered
    }

    /// Drop the NVM copies [`recover_nvm_buffer`] adopted for `pids`,
    /// pages the caller knows nothing references: each frame header is
    /// cleared and persisted and the frame freed, with no write-back, so
    /// the page reads as its SSD image from then on. Call it before
    /// anything fetches. An adopted copy carries data dirt, so one nothing
    /// references would otherwise hold its frame until a write-back to SSD
    /// evicts it — and never, while SSD syncs fail.
    ///
    /// [`recover_nvm_buffer`]: BufferManager::recover_nvm_buffer
    pub fn drop_recovered(&self, pids: &[PageId]) -> Result<()> {
        let Some(nvm) = &self.nvm else {
            return Ok(());
        };
        for &pid in pids {
            let Some(desc) = self.mapping.get(&pid.0) else {
                continue;
            };
            let mut st = desc.state.lock();
            let Some(CopyState::Resident {
                frame: FrameRef::Full(frame),
                ..
            }) = st.nvm
            else {
                continue;
            };
            nvm.clear_frame_header(frame)?;
            desc.nvm_pin.close();
            st.nvm = None;
            drop(st);
            nvm.free(frame);
        }
        Ok(())
    }

    /// Restore the page-id allocator from the persistent devices: the SSD
    /// page store plus whatever the NVM scan recovered. Returns the new
    /// allocator floor.
    pub fn recover_page_allocator(&self) -> u64 {
        if let Some(max) = self.ssd.max_page_id() {
            self.next_pid.fetch_max(max + 1, Ordering::AcqRel);
        }
        self.next_pid.load(Ordering::Acquire)
    }
}
