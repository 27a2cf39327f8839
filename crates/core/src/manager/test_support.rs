//! Hand-built page states for the manager's unit tests: a small
//! three-tier manager, and copies installed in a slot without any I/O.

use super::BufferManager;
use crate::config::BufferManagerConfig;
use crate::descriptor::{CopyState, Dirt, FrameRef, SharedPageDesc};
use crate::policy::MigrationPolicy;
use crate::types::FrameId;
use spitfire_device::TimeScale;

const PAGE: usize = 1024;

/// Eight 1 KB frames in each pool, lazy policy, no emulated delays.
pub(super) fn manager() -> BufferManager {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(8 * PAGE)
        .nvm_capacity(8 * (PAGE + 64))
        .policy(MigrationPolicy::lazy())
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    BufferManager::new(config).unwrap()
}

/// Eight DRAM and sixteen NVM frames under the eager policy, with
/// fine-grained DRAM copies of 256 B granules: the first fetch of a page
/// lands on NVM, the next promotes it to a fine copy.
pub(super) fn fine_manager() -> BufferManager {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(8 * PAGE)
        .nvm_capacity(16 * (PAGE + 64))
        .policy(MigrationPolicy::eager())
        .fine_grained(256)
        .time_scale(TimeScale::ZERO)
        .build()
        .unwrap();
    BufferManager::new(config).unwrap()
}

/// Install a `Resident`, unpinned, full-frame copy of `pid` in one slot,
/// by hand; an NVM copy gets the frame header recovery adopts.
pub(super) fn install(
    bm: &BufferManager,
    desc: &SharedPageDesc,
    dram: bool,
    dirt: Dirt,
) -> FrameId {
    let f = bm.alloc_frame(dram).unwrap();
    let pool = if dram { bm.tier1_pool() } else { bm.nvm_pool() };
    pool.set_owner(f, desc.pid);
    pool.write_frame_header(f, desc.pid).unwrap();
    let mut st = desc.state.lock();
    *st.slot_mut(dram) = Some(CopyState::Resident {
        frame: FrameRef::Full(f),
        dirt,
    });
    // The word/slot invariant: DRAM open; NVM open iff no DRAM copy.
    if dram {
        desc.nvm_pin.close();
        desc.dram_pin.open(f.0);
    } else if st.dram.is_none() {
        desc.nvm_pin.open(f.0);
    }
    f
}
