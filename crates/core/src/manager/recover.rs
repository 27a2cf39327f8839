//! Crash simulation and the buffer manager's part of recovery (paper
//! §5.2 Recovery): NVM-scan mapping rebuild, snapshot image install, and
//! page-id allocator restoration.

use std::sync::Arc;

use spitfire_device::AccessPattern;
use spitfire_sync::atomic::Ordering;

use super::BufferManager;
use crate::descriptor::{CopyState, Dirt, FrameRef, SharedPageDesc};
use crate::io::retry_device_io;
use crate::types::{FrameId, PageId};
use crate::Result;

impl BufferManager {
    /// Simulate a process crash with power loss: volatile state (mapping
    /// table, DRAM buffer) is discarded and un-persisted NVM writes are
    /// rolled back. Only meaningful with
    /// [`spitfire_device::PersistenceTracking::Full`].
    pub fn simulate_crash(&self) {
        self.mapping.clear();
        // The dirty-epoch set tracked volatile state that just died with
        // the mapping table; recovery repopulates it through `mark_dirty`
        // as redo rewrites pages.
        self.dirty_since.lock().clear();
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
                pins: 0,
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

    /// Install a snapshot page image during recovery: write it to the SSD
    /// home location and, if the NVM scan adopted a (possibly *older*)
    /// persistent copy of the same page, overwrite that copy too so it
    /// cannot shadow the image. An NVM copy can predate the snapshot —
    /// the page may have been re-dirtied in DRAM and flushed again after
    /// its NVM write-back — so NVM content must not take precedence here.
    /// Any effects newer than the image are reconstructed by the WAL-tail
    /// replay that follows. The caller batches images and calls
    /// [`BufferManager::sync_ssd`] once at the end.
    pub fn install_page_image(&self, pid: PageId, image: &[u8]) -> Result<()> {
        assert_eq!(image.len(), self.config.page_size, "page image size");
        retry_device_io(&self.metrics, "snapshot install", || {
            self.ssd.write_page(pid.0, image)
        })?;
        self.next_pid.fetch_max(pid.0 + 1, Ordering::AcqRel);
        let Some(desc) = self.mapping.get(&pid.0) else {
            return Ok(());
        };
        let st = desc.state.lock();
        if let Some(CopyState::Resident {
            frame: FrameRef::Full(frame),
            ..
        }) = &st.nvm
        {
            let pool = self.nvm_pool();
            pool.write(*frame, 0, image, AccessPattern::Sequential)?;
            pool.persist(*frame, 0, image.len())?;
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
