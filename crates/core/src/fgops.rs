//! Buffer-manager operations on cache-line-grained and mini pages
//! (paper §2.1; evaluated in §6.5, Figures 11 and 12).
//!
//! These operations run *under the descriptor mutex*: granule loads are
//! sub-microsecond NVM→DRAM transfers, and holding the lock keeps the
//! resident/dirty masks consistent with the bytes without a second
//! synchronization layer. Whole-page guard I/O (the common case) never
//! takes this path.

use spitfire_device::AccessPattern;

use crate::descriptor::{CopyState, Dirt, FrameRef, SharedPageDesc};
use crate::error::BufferError;
use crate::fgpage::{FinePage, MiniPage};
use crate::guard::{GuardKind, PageGuard};
use crate::manager::{with_page_buf, BufferManager};
use crate::types::{FrameId, MigrationPath, PageId};
use crate::Result;

impl BufferManager {
    fn granule(&self) -> usize {
        self.config()
            .fine_grained
            .expect("fine-grained ops require a granule")
    }

    /// Promote an NVM-resident page to a fine-grained (or mini) DRAM copy:
    /// no data is copied up front; granules load on demand. NVM eviction
    /// refuses the NVM copy while the partial DRAM copy references it (the
    /// paper's pointer from the cache-line-grained page to the underlying
    /// NVM page, Figure 2a). The returned guard's pin is on the DRAM word,
    /// which stays closed over a partial copy.
    pub(crate) fn promote_fine(
        &self,
        desc: &SharedPageDesc,
        nvm_frame: FrameId,
        nvm_dirt: Dirt,
    ) -> Result<PageGuard<'_>> {
        let mig_t = spitfire_obs::op_start();
        let pid = desc.pid;
        let fref = if let Some(mini) = &self.mini {
            let slot = match mini.try_alloc(pid) {
                Some(slot) => slot,
                None => {
                    let slab = self.alloc_frame(true)?;
                    mini.register_slab(slab, pid)
                }
            };
            FrameRef::Mini(Box::new(MiniPage::new(slot)))
        } else {
            let frame = self.alloc_frame(true)?;
            self.tier1_pool().set_owner(frame, pid);
            FrameRef::Fine(Box::new(FinePage::new(frame)))
        };
        let mut st = desc.state.lock();
        st.dram = Some(CopyState::Resident {
            frame: fref,
            dirt: Dirt::Clean,
        });
        st.nvm = Some(CopyState::Resident {
            frame: FrameRef::Full(nvm_frame),
            dirt: nvm_dirt,
        });
        desc.dram_pin.pin_locked();
        desc.cond.notify_all();
        drop(st);
        // Promotion of the page *identity*; granule traffic is charged as
        // it happens.
        self.metrics.record_migration(MigrationPath::NvmToDram);
        spitfire_obs::record_since(spitfire_obs::Op::MigNvmToDram, mig_t);
        Ok(PageGuard::new(self, pid, GuardKind::FineGrained))
    }

    /// Read through a fine-grained DRAM copy, loading missing granules from
    /// the backing NVM page.
    pub(crate) fn fg_read(&self, pid: PageId, offset: usize, buf: &mut [u8]) -> Result<()> {
        let desc = self.mapping_get(pid)?;
        let granule = self.granule();
        let mut st = desc.state.lock();
        let nvm_frame = nvm_backing_frame(&st.nvm, pid)?;
        let (first, last) = granule_range(offset, buf.len(), granule);

        match dram_fref_mut(&mut st.dram, pid)? {
            FrameRef::Fine(fp) => {
                let frame = fp.frame;
                for g in first..=last {
                    if !fp.resident.get(g) {
                        self.load_granule(nvm_frame, frame, g * granule, g * granule, granule)?;
                        fp.resident.set(g);
                    }
                }
                self.tier1_pool()
                    .read(frame, offset, buf, AccessPattern::Random)?;
                self.tier1_pool().touch(frame);
            }
            FrameRef::Mini(_) => {
                self.mini_access(&mut st.dram, pid, nvm_frame, offset, MiniIo::Read(buf))?;
            }
            FrameRef::Full(_) => unreachable!("fine-grained guard on a full frame"),
        }
        Ok(())
    }

    /// Write through a fine-grained DRAM copy. Granules fully covered by
    /// the write are not loaded first; partially covered granules are.
    /// Every write here is data: granule masks have no hint level.
    pub(crate) fn fg_write(&self, pid: PageId, offset: usize, data: &[u8]) -> Result<()> {
        let desc = self.mapping_get(pid)?;
        let granule = self.granule();
        let mut st = desc.state.lock();
        let nvm_frame = nvm_backing_frame(&st.nvm, pid)?;
        let (first, last) = granule_range(offset, data.len(), granule);

        match dram_fref_mut(&mut st.dram, pid)? {
            FrameRef::Fine(fp) => {
                let frame = fp.frame;
                for g in first..=last {
                    let fully_covered =
                        offset <= g * granule && offset + data.len() >= (g + 1) * granule;
                    if !fp.resident.get(g) && !fully_covered {
                        self.load_granule(nvm_frame, frame, g * granule, g * granule, granule)?;
                    }
                    fp.resident.set(g);
                    fp.dirty.set(g);
                }
                self.tier1_pool()
                    .write(frame, offset, data, AccessPattern::Random)?;
                self.tier1_pool().touch(frame);
            }
            FrameRef::Mini(_) => {
                self.mini_access(&mut st.dram, pid, nvm_frame, offset, MiniIo::Write(data))?;
            }
            FrameRef::Full(_) => unreachable!("fine-grained guard on a full frame"),
        }
        if let Some(CopyState::Resident { dirt, .. }) = &mut st.dram {
            *dirt = Dirt::Data;
        }
        Ok(())
    }

    /// Serve a read or write against a mini page, promoting it to a fine
    /// page on slot overflow (paper §2.1: "when the mini page overflows,
    /// HyMem transparently promotes it to a full page").
    fn mini_access(
        &self,
        dram: &mut Option<CopyState>,
        pid: PageId,
        nvm_frame: FrameId,
        offset: usize,
        mut io: MiniIo<'_>,
    ) -> Result<()> {
        let granule = self.granule();
        let len = io.len();
        let (first, last) = granule_range(offset, len, granule);
        let mini = self.mini.as_ref().expect("mini slabs exist");

        // Ensure every touched granule has a slot, promoting on overflow.
        for g in first..=last {
            let overflowed = mini_page_mut(dram, pid)?.insert(g as u16).is_none();
            if overflowed {
                self.promote_mini_to_fine(dram, pid)?;
                return self.fine_access_after_promotion(dram, nvm_frame, offset, io);
            }
        }

        // All granules have slots; load the ones not yet resident and
        // perform the I/O slot by slot.
        let slot_snapshot = mini_page_mut(dram, pid)?.slot;
        for g in first..=last {
            let (j, needs_load) = {
                let mp = mini_page_mut(dram, pid)?;
                let j = mp.find(g as u16).expect("slot ensured above");
                (j, !mp.loaded(j))
            };
            let slab_off = mini.content_offset(slot_snapshot, j, granule);
            let g_start = g * granule;
            let g_end = g_start + granule;
            let io_start = offset.max(g_start);
            let io_end = (offset + len).min(g_end);
            let fully_covered =
                matches!(io, MiniIo::Write(_)) && io_start == g_start && io_end == g_end;
            if needs_load && !fully_covered {
                self.load_granule(nvm_frame, slot_snapshot.slab, g_start, slab_off, granule)?;
            }
            {
                let mp = mini_page_mut(dram, pid)?;
                mp.mark_loaded(j);
            }
            let within = io_start - g_start;
            match &mut io {
                MiniIo::Read(buf) => {
                    let dst = &mut buf[io_start - offset..io_end - offset];
                    self.tier1_pool().read(
                        slot_snapshot.slab,
                        slab_off + within,
                        dst,
                        AccessPattern::Random,
                    )?;
                }
                MiniIo::Write(data) => {
                    let src = &data[io_start - offset..io_end - offset];
                    self.tier1_pool().write(
                        slot_snapshot.slab,
                        slab_off + within,
                        src,
                        AccessPattern::Random,
                    )?;
                    let mp = mini_page_mut(dram, pid)?;
                    mp.mark_dirty(j);
                }
            }
        }
        self.tier1_pool().touch(slot_snapshot.slab);
        Ok(())
    }

    /// Convert the mini copy into a fine page (allocating a full frame and
    /// copying loaded granules across).
    fn promote_mini_to_fine(&self, dram: &mut Option<CopyState>, pid: PageId) -> Result<()> {
        let granule = self.granule();
        let mini = self.mini.as_ref().expect("mini slabs exist");
        let new_frame = self.alloc_frame(true)?;
        let (dirt, mp) = match dram.take() {
            Some(CopyState::Resident {
                frame: FrameRef::Mini(mp),
                dirt,
            }) => (dirt, mp),
            other => {
                *dram = other;
                self.tier1_pool().free(new_frame);
                return Err(BufferError::UnknownPage(pid));
            }
        };
        let mut fp = FinePage::new(new_frame);
        for (j, gid) in mp.occupied() {
            let gid = gid as usize;
            if !mp.loaded(j) {
                continue;
            }
            let src = mini.content_offset(mp.slot, j, granule);
            self.copy_within_tier1(mp.slot.slab, src, new_frame, gid * granule, granule)?;
            fp.resident.set(gid);
            if mp.is_dirty(j) {
                fp.dirty.set(gid);
            }
        }
        if mini.free_slot(mp.slot) {
            self.tier1_pool().free(mp.slot.slab);
        }
        self.tier1_pool().set_owner(new_frame, pid);
        *dram = Some(CopyState::Resident {
            frame: FrameRef::Fine(Box::new(fp)),
            dirt,
        });
        Ok(())
    }

    /// Finish an access that started on a mini page and overflowed into a
    /// fine page mid-operation.
    fn fine_access_after_promotion(
        &self,
        dram: &mut Option<CopyState>,
        nvm_frame: FrameId,
        offset: usize,
        mut io: MiniIo<'_>,
    ) -> Result<()> {
        let granule = self.granule();
        let len = io.len();
        let (first, last) = granule_range(offset, len, granule);
        let Some(CopyState::Resident {
            frame: FrameRef::Fine(fp),
            dirt,
            ..
        }) = dram
        else {
            unreachable!("promotion installs a fine page");
        };
        let frame = fp.frame;
        for g in first..=last {
            let fully_covered = matches!(io, MiniIo::Write(_))
                && offset <= g * granule
                && offset + len >= (g + 1) * granule;
            if !fp.resident.get(g) && !fully_covered {
                self.load_granule(nvm_frame, frame, g * granule, g * granule, granule)?;
            }
            fp.resident.set(g);
            if matches!(io, MiniIo::Write(_)) {
                fp.dirty.set(g);
            }
        }
        match &mut io {
            MiniIo::Read(buf) => {
                self.tier1_pool()
                    .read(frame, offset, buf, AccessPattern::Random)?;
            }
            MiniIo::Write(data) => {
                self.tier1_pool()
                    .write(frame, offset, data, AccessPattern::Random)?;
                *dirt = Dirt::Data;
            }
        }
        self.tier1_pool().touch(frame);
        Ok(())
    }

    /// Copy one granule NVM→DRAM (the on-demand load of Figure 2a).
    fn load_granule(
        &self,
        nvm_frame: FrameId,
        dram_frame: FrameId,
        nvm_off: usize,
        dram_off: usize,
        granule: usize,
    ) -> Result<()> {
        with_page_buf(granule, |buf| -> Result<()> {
            self.nvm_pool()
                .read(nvm_frame, nvm_off, buf, AccessPattern::Random)?;
            self.tier1_pool()
                .write(dram_frame, dram_off, buf, AccessPattern::Random)?;
            Ok(())
        })
    }

    fn copy_within_tier1(
        &self,
        src_frame: FrameId,
        src_off: usize,
        dst_frame: FrameId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        with_page_buf(len, |buf| -> Result<()> {
            self.tier1_pool()
                .read(src_frame, src_off, buf, AccessPattern::Random)?;
            self.tier1_pool()
                .write(dst_frame, dst_off, buf, AccessPattern::Random)?;
            Ok(())
        })
    }

    /// Write the dirty granules of an evicted fine/mini copy back to the
    /// backing NVM frame (called by the eviction path with both copies
    /// marked `Busy`).
    pub(crate) fn write_back_granules(&self, fref: &FrameRef, nvm_frame: FrameId) {
        let granule = self.granule();
        let res: Result<()> = (|| {
            match fref {
                FrameRef::Fine(fp) => {
                    for g in fp.dirty.iter() {
                        with_page_buf(granule, |buf| -> Result<()> {
                            self.tier1_pool().read(
                                fp.frame,
                                g * granule,
                                buf,
                                AccessPattern::Random,
                            )?;
                            let pool = self.nvm_pool();
                            pool.write(nvm_frame, g * granule, buf, AccessPattern::Random)?;
                            pool.persist(nvm_frame, g * granule, granule)?;
                            Ok(())
                        })?;
                    }
                }
                FrameRef::Mini(mp) => {
                    let mini = self.mini.as_ref().expect("mini slabs exist");
                    for (j, gid) in mp.occupied() {
                        if !mp.is_dirty(j) {
                            continue;
                        }
                        let gid = gid as usize;
                        let src = mini.content_offset(mp.slot, j, granule);
                        with_page_buf(granule, |buf| -> Result<()> {
                            self.tier1_pool().read(
                                mp.slot.slab,
                                src,
                                buf,
                                AccessPattern::Random,
                            )?;
                            let pool = self.nvm_pool();
                            pool.write(nvm_frame, gid * granule, buf, AccessPattern::Random)?;
                            pool.persist(nvm_frame, gid * granule, granule)?;
                            Ok(())
                        })?;
                    }
                }
                FrameRef::Full(_) => unreachable!("granule write-back of a full frame"),
            }
            Ok(())
        })();
        debug_assert!(res.is_ok(), "granule write-back failed: {res:?}");
    }

    fn mapping_get(&self, pid: PageId) -> Result<std::sync::Arc<SharedPageDesc>> {
        self.mapping
            .get(&pid.0)
            .ok_or(BufferError::UnknownPage(pid))
    }
}

/// The direction and buffer of a mini-page access.
enum MiniIo<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
}

impl MiniIo<'_> {
    fn len(&self) -> usize {
        match self {
            MiniIo::Read(b) => b.len(),
            MiniIo::Write(d) => d.len(),
        }
    }
}

fn granule_range(offset: usize, len: usize, granule: usize) -> (usize, usize) {
    let first = offset / granule;
    let last = if len == 0 {
        first
    } else {
        (offset + len - 1) / granule
    };
    (first, last)
}

fn nvm_backing_frame(nvm: &Option<CopyState>, pid: PageId) -> Result<FrameId> {
    match nvm {
        Some(CopyState::Resident { frame, .. }) => Ok(frame.frame()),
        _ => Err(BufferError::UnknownPage(pid)),
    }
}

fn dram_fref_mut(dram: &mut Option<CopyState>, pid: PageId) -> Result<&mut FrameRef> {
    match dram {
        Some(CopyState::Resident { frame, .. }) => Ok(frame),
        _ => Err(BufferError::UnknownPage(pid)),
    }
}

fn mini_page_mut(dram: &mut Option<CopyState>, pid: PageId) -> Result<&mut MiniPage> {
    match dram {
        Some(CopyState::Resident {
            frame: FrameRef::Mini(mp),
            ..
        }) => Ok(mp),
        _ => Err(BufferError::UnknownPage(pid)),
    }
}
