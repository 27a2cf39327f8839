//! Fetching a page: the lock-free hit fast path, the descriptor-mutex
//! slow path (misses, promotions, waits), and the loads that install a
//! copy (SSD → DRAM/NVM, NVM → DRAM).

use std::cell::RefCell;
use std::sync::Arc;

use spitfire_device::AccessPattern;
use spitfire_obs::{self as obs, Op};
use spitfire_sync::atomic::Ordering;
use spitfire_sync::PinAttempt;

use super::shadow::{ShadowClaim, ShadowEnd};
use super::{with_page_buf, BufferManager};
use crate::descriptor::{CopyState, Dirt, FrameRef, SharedPageDesc};
use crate::error::BufferError;
use crate::guard::{GuardKind, PageGuard, ReadGuard, WriteGuard};
use crate::policy::Coin;
use crate::types::{AccessIntent, FrameId, MigrationPath, PageId, Tier};
use crate::Result;

/// Direct-mapped slots in the per-thread descriptor cache. Hot working
/// sets are far smaller than this; collisions just fall back to the
/// mapping table.
const DESC_CACHE_SLOTS: usize = 64;

/// One per-thread descriptor cache entry: valid for a single manager
/// generation (`mgr`, `epoch`).
struct CachedDesc {
    mgr: u64,
    epoch: u64,
    pid: u64,
    desc: Arc<SharedPageDesc>,
}

thread_local! {
    /// pid → descriptor cache, shared across managers on this thread
    /// (entries are tagged with the owning manager and its crash epoch).
    static DESC_CACHE: RefCell<Vec<Option<CachedDesc>>> =
        RefCell::new((0..DESC_CACHE_SLOTS).map(|_| None).collect());
}

/// How the fast path resolved a fetch.
enum FastOutcome<'a> {
    /// Served lock-free: the guard holds an optimistic pin.
    Hit(PageGuard<'a>),
    /// Fall back to the mutex slow path with the resolved descriptor.
    /// `promote` carries an already-drawn D_r/D_w promotion coin
    /// (`Some(_)`) so the slow path never draws it twice.
    Slow(Arc<SharedPageDesc>, Option<bool>),
    /// No descriptor exists yet (first access, or an invalid pid): the
    /// slow path bounds-checks and creates it.
    NoDesc,
}

impl BufferManager {
    /// Fetch `pid` with the given intent, returning a pinned guard on
    /// whichever tier the migration policy placed the page (§5.1).
    ///
    /// A stably resident page is served by the lock-free fast path (a
    /// per-thread descriptor cache plus the descriptor's optimistic pin
    /// word); everything else — misses, promotions, contended
    /// transitions, fine-grained copies — falls back to the
    /// descriptor-mutex slow path.
    pub fn fetch(&self, pid: PageId, intent: AccessIntent) -> Result<PageGuard<'_>> {
        let obs_t = obs::op_start();
        match self.fetch_fast(pid, intent, obs_t) {
            FastOutcome::Hit(guard) => Ok(guard),
            FastOutcome::Slow(desc, promote) => self.fetch_slow(&desc, pid, intent, promote, obs_t),
            FastOutcome::NoDesc => {
                let desc = self.descriptor(pid)?;
                self.fetch_slow(&desc, pid, intent, None, obs_t)
            }
        }
    }

    /// Fetch `pid` for reading, returning a [`ReadGuard`] that statically
    /// has no write methods — passing read intent and then writing through
    /// the guard becomes a compile error instead of silently mis-charging
    /// the migration policy's read/write coins.
    pub fn fetch_read(&self, pid: PageId) -> Result<ReadGuard<'_>> {
        self.fetch(pid, AccessIntent::Read).map(ReadGuard::new)
    }

    /// Fetch `pid` for writing, returning a [`WriteGuard`] (read methods
    /// plus `write`/`write_u64`).
    pub fn fetch_write(&self, pid: PageId) -> Result<WriteGuard<'_>> {
        self.fetch(pid, AccessIntent::Write).map(WriteGuard::new)
    }

    /// Cache-miss descriptor resolution for [`Self::fetch_fast`]: consult
    /// the mapping table and install the result in the thread-local slot.
    /// The mapping probe takes a shard read lock, which is why this lives
    /// outside the `fastpath` lint region — a stably cached page never
    /// gets here.
    #[cold]
    fn fast_resolve_miss(&self, slot: &mut Option<CachedDesc>, pid: PageId, epoch: u64) -> bool {
        let Some(desc) = self.mapping.get(&pid.0) else {
            return false;
        };
        *slot = Some(CachedDesc {
            mgr: self.mgr_id,
            epoch,
            pid: pid.0,
            desc,
        });
        true
    }

    /// Mapping-table fallback for [`Self::unpin_fast`] when the cache slot
    /// was stolen by a colliding pid (or invalidated by a crash). After a
    /// crash the descriptor may be gone entirely — the pin died with it,
    /// and `PinWord::unpin` on a re-created descriptor is a harmless no-op
    /// at count zero. Takes a shard read lock, hence outside the
    /// `fastpath` lint region.
    #[cold]
    fn unpin_cold(&self, pid: PageId, in_dram_slot: bool) {
        if let Some(desc) = self.mapping.get(&pid.0) {
            desc.pin_word(in_dram_slot).unpin();
        }
    }

    // xtask: fastpath-begin -- lock-free hit path (fetch_fast/unpin_fast).
    // No lock types or acquisitions below; lock-taking fallbacks are the
    // #[cold] helpers above, outside this region.

    /// The lock-free hit path. An uncontended DRAM hit costs one
    /// thread-local array probe, one pin-word CAS, one CLOCK-bitmap bit
    /// set, and two relaxed counter bumps — no mutex, no shard lock, no
    /// `Arc` refcount traffic, no pid bounds check.
    fn fetch_fast(
        &self,
        pid: PageId,
        intent: AccessIntent,
        obs_t: Option<std::time::Instant>,
    ) -> FastOutcome<'_> {
        DESC_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let slot = &mut cache[(pid.0 as usize) & (DESC_CACHE_SLOTS - 1)];
            // Acquire pairs with the release bump in `simulate_crash`: a
            // thread that sees the new epoch also sees the cleared
            // mapping table, so stale descriptors cannot be re-cached
            // under the new epoch.
            let epoch = self.cache_epoch.load(Ordering::Acquire);
            let desc: &Arc<SharedPageDesc> = match slot {
                Some(c) if c.mgr == self.mgr_id && c.epoch == epoch && c.pid == pid.0 => &c.desc,
                _ => {
                    if !self.fast_resolve_miss(slot, pid, epoch) {
                        return FastOutcome::NoDesc;
                    }
                    &slot.as_ref().expect("just resolved").desc
                }
            };
            // DRAM copy: one CAS pins it or we learn why not.
            if self.tier1.is_some() {
                match desc.dram_pin.try_pin() {
                    PinAttempt::Pinned(frame) => {
                        let f = FrameId(frame);
                        self.tier1_pool().touch(f);
                        self.metrics.record_dram_hit();
                        self.metrics.record_fetch_fast();
                        obs::record_since(Op::FetchDramHit, obs_t);
                        return FastOutcome::Hit(PageGuard::new(self, pid, GuardKind::FullDram(f)));
                    }
                    PinAttempt::Raced => {
                        // A transition closed the word between our load
                        // and CAS: restart into the mutex protocol.
                        self.metrics.record_pin_restart();
                        obs::record_since(Op::PinRestart, obs_t);
                        return FastOutcome::Slow(Arc::clone(desc), None);
                    }
                    PinAttempt::Closed => {}
                }
            }
            // NVM copy: open implies Resident with no DRAM copy
            // shadowing it, so serving in place is consistent. The
            // promotion coin is flipped here; if it fires, the slow path
            // executes the promotion with the coin already drawn.
            if self.nvm.is_some() && desc.nvm_pin.is_open() {
                let promote = self.tier1.is_some() && self.flip_coin(desc, Coin::promotion(intent));
                if promote {
                    return FastOutcome::Slow(Arc::clone(desc), Some(true));
                }
                match desc.nvm_pin.try_pin() {
                    PinAttempt::Pinned(frame) => {
                        let f = FrameId(frame);
                        self.nvm_pool().touch(f);
                        self.metrics.record_nvm_hit();
                        self.metrics.record_fetch_fast();
                        obs::record_since(Op::FetchNvmHit, obs_t);
                        return FastOutcome::Hit(PageGuard::new(self, pid, GuardKind::FullNvm(f)));
                    }
                    PinAttempt::Raced | PinAttempt::Closed => {
                        // The coin was already drawn (tails): pass it
                        // down so the slow path does not re-draw.
                        self.metrics.record_pin_restart();
                        obs::record_since(Op::PinRestart, obs_t);
                        return FastOutcome::Slow(Arc::clone(desc), Some(false));
                    }
                }
            }
            FastOutcome::Slow(Arc::clone(desc), None)
        })
    }

    /// Drop a guard's pin, however it was taken. Mirrors `fetch_fast`: the
    /// descriptor comes from the per-thread cache when possible, and the
    /// unpin is a single CAS — no mutex, no condvar. Nothing ever blocks
    /// waiting for pins to drain (`Busy` states start at zero pins;
    /// evictors and promoters skip or serve in place instead), so no
    /// notification is needed.
    pub(crate) fn unpin_fast(&self, pid: PageId, in_dram_slot: bool) {
        let cached = self.with_cached_desc(pid, |desc| desc.pin_word(in_dram_slot).unpin());
        if cached.is_err() {
            self.unpin_cold(pid, in_dram_slot);
        }
    }

    /// Run `f` on `pid`'s descriptor if this thread's cache still holds it
    /// — it does for every page the thread has pinned since the slot was
    /// last stolen, so a guard's writes and its drop resolve the
    /// descriptor here instead of probing the mapping table again. The
    /// probe itself takes no lock; `f` runs with the cache borrowed and
    /// must not fetch. On a miss `f` comes back unrun, for the caller's
    /// fallback.
    pub(crate) fn with_cached_desc<R, F: FnOnce(&SharedPageDesc) -> R>(
        &self,
        pid: PageId,
        f: F,
    ) -> std::result::Result<R, F> {
        let epoch = self.cache_epoch.load(Ordering::Acquire);
        DESC_CACHE.with(|cache| {
            let cache = cache.borrow();
            match &cache[(pid.0 as usize) & (DESC_CACHE_SLOTS - 1)] {
                Some(c) if c.mgr == self.mgr_id && c.epoch == epoch && c.pid == pid.0 => {
                    Ok(f(&c.desc))
                }
                _ => Err(f),
            }
        })
    }

    // xtask: fastpath-end

    /// Turn a pin taken with read intent into one the holder may write
    /// through ([`ReadGuard::upgrade`]). A copy that cannot move up — a
    /// DRAM-resident one, or any copy in a hierarchy without a DRAM tier —
    /// keeps its pin and draws nothing. An NVM-resident copy flips D_w, the
    /// coin a write-intent fetch of the same page would have flipped:
    /// tails keeps the pin and the write lands in place; heads releases
    /// the pin (a promotion only starts on a drained copy) and re-enters
    /// the slow path with the coin already drawn, so the write lands on the
    /// promoted DRAM copy.
    pub(crate) fn upgrade<'a>(&'a self, guard: PageGuard<'a>) -> Result<PageGuard<'a>> {
        let pid = guard.page_id();
        let promote = guard.tier() == Tier::Nvm
            && self.tier1.is_some()
            && self
                .with_desc(pid, |desc| self.flip_coin(desc, Coin::Dw))
                .unwrap_or(false);
        if !promote {
            return Ok(guard);
        }
        drop(guard);
        let desc = self.descriptor(pid)?;
        self.fetch_slow(&desc, pid, AccessIntent::Write, Some(true), obs::op_start())
    }

    /// The descriptor-mutex fetch protocol (misses, migrations, waits).
    /// `promote` carries a promotion coin the fast path already drew for
    /// an NVM-resident page, consumed by the first NVM-resident arm.
    fn fetch_slow(
        &self,
        desc: &SharedPageDesc,
        pid: PageId,
        intent: AccessIntent,
        promote: Option<bool>,
        obs_t: Option<std::time::Instant>,
    ) -> Result<PageGuard<'_>> {
        self.metrics.record_fetch_fallback();
        let mut promote_hint = promote;
        let mut st = desc.state.lock();
        loop {
            // 1. Tier-1 (DRAM) copy.
            if self.tier1.is_some() {
                match &st.dram {
                    Some(CopyState::Resident { frame, .. }) => {
                        // A fine or mini copy counts here too: its word
                        // stays closed, so the fast path still falls back.
                        desc.dram_pin.pin_locked();
                        let kind = match frame {
                            FrameRef::Full(f) => GuardKind::FullDram(*f),
                            FrameRef::Fine(_) | FrameRef::Mini(_) => GuardKind::FineGrained,
                        };
                        self.tier1_pool().touch(frame.frame());
                        drop(st);
                        self.metrics.record_dram_hit();
                        obs::record_since(Op::FetchDramHit, obs_t);
                        return Ok(PageGuard::new(self, pid, kind));
                    }
                    Some(_) => {
                        let stall_t = obs::op_start();
                        desc.cond.wait(&mut st);
                        obs::record_since(Op::ReaderStall, stall_t);
                        continue;
                    }
                    None => {}
                }
            }
            // 2. NVM copy.
            if self.nvm.is_some() {
                match &st.nvm {
                    Some(CopyState::Resident { frame, dirt }) => {
                        let f = frame.frame();
                        let dirt0 = *dirt;
                        // A shadow operation owns this copy's transitions:
                        // serve in place rather than promote from under it.
                        let shadowed = st.shadow_nvm;
                        // Consume the fast path's coin if it drew one;
                        // otherwise draw here (lazily). Never both — a
                        // double draw would square the probability.
                        let want_promote = self.tier1.is_some()
                            && !shadowed
                            && promote_hint
                                .take()
                                .unwrap_or_else(|| self.flip_coin(desc, Coin::promotion(intent)));
                        // A promotion retires the NVM copy's word: skip it
                        // before any I/O while a guard holds the copy.
                        let promoting = want_promote && desc.nvm_pin.pins() == 0;
                        if promoting && self.config.fine_grained.is_none() {
                            // Shadow promotion: copy NVM→DRAM while the NVM
                            // word stays open, so hit-path readers never
                            // stall behind the move.
                            if let Some(claim) = Self::shadow_claim(desc, &mut st, false, f, None) {
                                drop(st);
                                match self.promote_shadow(desc, claim) {
                                    Ok(Some(guard)) => {
                                        obs::record_since(Op::FetchNvmHit, obs_t);
                                        return Ok(guard);
                                    }
                                    Ok(None) => {
                                        // Aborted (raced a write, readers
                                        // draining, or no DRAM frame): the
                                        // NVM copy is untouched — serve it
                                        // in place on the retry.
                                        promote_hint = Some(false);
                                        st = desc.state.lock();
                                        continue;
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                        }
                        // Fine-grained promotion copies nothing up front —
                        // there is no I/O window to shadow — so it claims
                        // the NVM copy exclusively; if it is pinned, serve
                        // from NVM instead (§5.2's drain, formulated as only
                        // starting when drained). Closing the word is what
                        // proves there are no pins and stops new ones.
                        let claimed = promoting && self.config.fine_grained.is_some() && {
                            let pins = desc.nvm_pin.close();
                            if pins > 0 {
                                // Readers still draining: re-open and
                                // serve in place.
                                desc.nvm_pin.open(f.0);
                            }
                            pins == 0
                        };
                        if !claimed {
                            desc.nvm_pin.pin_locked();
                            self.nvm_pool().touch(f);
                            drop(st);
                            self.metrics.record_nvm_hit();
                            obs::record_since(Op::FetchNvmHit, obs_t);
                            return Ok(PageGuard::new(self, pid, GuardKind::FullNvm(f)));
                        }
                        // The NVM word is now closed with zero pins: the
                        // copy is exclusively ours to promote.
                        st.nvm = Some(CopyState::Busy {
                            frame: FrameRef::Full(f),
                            dirt: dirt0,
                        });
                        st.dram = Some(CopyState::Loading);
                        drop(st);
                        match self.promote_fine(desc, f, dirt0) {
                            Ok(guard) => {
                                obs::record_since(Op::FetchNvmHit, obs_t);
                                return Ok(guard);
                            }
                            Err(e) => {
                                let mut st = desc.state.lock();
                                st.dram = None;
                                let serve_from_nvm = matches!(e, BufferError::NoFrames { .. });
                                st.nvm = Some(CopyState::Resident {
                                    frame: FrameRef::Full(f),
                                    dirt: dirt0,
                                });
                                Self::reopen_nvm_word(desc, &st);
                                if serve_from_nvm {
                                    desc.nvm_pin.pin_locked();
                                }
                                desc.cond.notify_all();
                                drop(st);
                                if serve_from_nvm {
                                    // DRAM had no evictable frame: degrade
                                    // gracefully to an in-place NVM access.
                                    self.metrics.record_nvm_hit();
                                    obs::record_since(Op::FetchNvmHit, obs_t);
                                    return Ok(PageGuard::new(self, pid, GuardKind::FullNvm(f)));
                                }
                                return Err(e);
                            }
                        }
                    }
                    Some(_) => {
                        let stall_t = obs::op_start();
                        desc.cond.wait(&mut st);
                        obs::record_since(Op::ReaderStall, stall_t);
                        continue;
                    }
                    None => {}
                }
            }
            // 3. Miss: fetch from SSD, placing per the policy (§3.3/§3.2).
            let to_dram = match (self.tier1.is_some(), self.nvm.is_some()) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => match intent {
                    AccessIntent::Read => !self.flip_coin(desc, Coin::Nr),
                    AccessIntent::Write => self.flip_coin(desc, Coin::Dw),
                },
                (false, false) => unreachable!("validated: at least one buffer"),
            };
            *st.slot_mut(to_dram) = Some(CopyState::Loading);
            drop(st);
            self.metrics.record_ssd_fetch();
            let mut dest = to_dram;
            loop {
                let e = match self.load_from_ssd(pid, dest) {
                    Ok(guard) => {
                        obs::record_since(Op::FetchSsdMiss, obs_t);
                        return Ok(guard);
                    }
                    Err(e) => e,
                };
                // The chosen pool has no evictable frame (e.g. every NVM
                // frame backs a fine-grained copy): fall back to
                // the other tier, once. No other thread can have installed
                // a copy meanwhile — they all wait on our Loading marker.
                let fall_back = dest == to_dram
                    && matches!(e, BufferError::NoFrames { .. })
                    && self.tier1.is_some()
                    && self.nvm.is_some();
                let mut st = desc.state.lock();
                *st.slot_mut(dest) = None;
                if fall_back {
                    *st.slot_mut(!dest) = Some(CopyState::Loading);
                }
                desc.cond.notify_all();
                drop(st);
                if !fall_back {
                    return Err(e);
                }
                dest = !dest;
            }
        }
    }

    /// Shadow-copy promotion NVM → DRAM (path ⑥ without the reader
    /// stall). On entry `claim` holds the NVM copy: still `Resident` with
    /// its word open, so both the optimistic fast path and the mutex slow
    /// path keep serving it throughout the copy window. Returns `Ok(None)`
    /// when the migration aborted — the NVM copy stays authoritative and
    /// the caller serves it in place.
    fn promote_shadow(
        &self,
        desc: &SharedPageDesc,
        claim: ShadowClaim,
    ) -> Result<Option<PageGuard<'_>>> {
        let mig_t = obs::op_start();
        let dram_frame = match self.alloc_frame(true) {
            Ok(f) => f,
            Err(e) => {
                // No evictable DRAM frame is an abort of the move (serve
                // in place); anything else is a failed I/O.
                let no_frames = matches!(e, BufferError::NoFrames { .. });
                self.shadow_finish(desc, claim, ShadowEnd::Promote(None), no_frames);
                return if no_frames { Ok(None) } else { Err(e) };
            }
        };
        let copied = self.copy_frame(true, claim.src(), dram_frame, None);
        if copied.is_ok() {
            self.tier1_pool().set_owner(dram_frame, desc.pid);
        }
        let end = ShadowEnd::Promote(Some(dram_frame));
        let committed = self.shadow_finish(desc, claim, end, copied.is_ok());
        copied?;
        if !committed {
            return Ok(None);
        }
        self.metrics.record_migration(MigrationPath::NvmToDram);
        obs::record_since(Op::MigNvmToDram, mig_t);
        // The commit pinned the new copy for this guard.
        Ok(Some(PageGuard::new(
            self,
            desc.pid,
            GuardKind::FullDram(dram_frame),
        )))
    }

    /// Load a page from SSD into the chosen tier (paths ① / ④). The
    /// destination slot is `Loading` on entry.
    fn load_from_ssd(&self, pid: PageId, to_dram: bool) -> Result<PageGuard<'_>> {
        let desc = self
            .mapping
            .get(&pid.0)
            .ok_or(BufferError::UnknownPage(pid))?;
        let page = self.config.page_size;
        let mig_t = obs::op_start();
        let frame = self.alloc_frame(to_dram)?;
        let pool = if to_dram {
            self.tier1_pool()
        } else {
            self.nvm_pool()
        };
        with_page_buf(page, |buf| -> Result<()> {
            self.read_ssd_page(pid, buf)?;
            pool.write(frame, 0, buf, AccessPattern::Sequential)?;
            if !to_dram {
                pool.persist(frame, 0, page)?;
                pool.write_frame_header(frame, pid)?;
            }
            Ok(())
        })?;
        pool.set_owner(frame, pid);
        let mut st = desc.state.lock();
        *st.slot_mut(to_dram) = Some(CopyState::Resident {
            frame: FrameRef::Full(frame),
            dirt: Dirt::Clean,
        });
        // Waiters block on our Loading marker, so no other copy exists:
        // whichever tier this is, the copy is optimistically pinnable.
        let word = desc.pin_word(to_dram);
        word.open(frame.0);
        word.pin_locked();
        desc.cond.notify_all();
        drop(st);
        let (path, op, kind) = if to_dram {
            let kind = GuardKind::FullDram(frame);
            (MigrationPath::SsdToDram, Op::MigSsdToDram, kind)
        } else {
            let kind = GuardKind::FullNvm(frame);
            (MigrationPath::SsdToNvm, Op::MigSsdToNvm, kind)
        };
        self.metrics.record_migration(path);
        obs::record_since(op, mig_t);
        Ok(PageGuard::new(self, pid, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{fine_manager, manager};
    use super::*;
    use crate::policy::MigrationPolicy;

    /// The pin counts on `pid`'s (DRAM, NVM) words.
    fn pins(bm: &BufferManager, pid: PageId) -> (u32, u32) {
        let desc = bm.mapping.get(&pid.0).unwrap();
        (desc.dram_pin.pins(), desc.nvm_pin.pins())
    }

    /// `guard` came from `route` onto `tier` and holds one pin on that
    /// copy's word; dropping it leaves both words at zero.
    fn pinned_once(bm: &BufferManager, guard: PageGuard<'_>, tier: Tier, route: &str) {
        let pid = guard.page_id();
        assert_eq!(guard.tier(), tier, "{route}");
        let want = if tier == Tier::Dram { (1, 0) } else { (0, 1) };
        assert_eq!(pins(bm, pid), want, "{route}: while live");
        drop(guard);
        assert_eq!(pins(bm, pid), (0, 0), "{route}: after drop");
    }

    /// A slow-path fetch of `pid` that draws no coin.
    fn slow(bm: &BufferManager, pid: PageId) -> PageGuard<'_> {
        let desc = bm.descriptor(pid).unwrap();
        bm.fetch_slow(&desc, pid, AccessIntent::Read, Some(false), None)
            .unwrap()
    }

    #[test]
    fn every_slow_path_guard_pins_its_copys_word() {
        let bm = manager();
        let set = |dr, nr| bm.admin().set_policy(MigrationPolicy::new(dr, dr, nr, 1.0));
        let read = |pid| bm.fetch(pid, AccessIntent::Read).unwrap();
        let (a, b) = (bm.allocate_page().unwrap(), bm.allocate_page().unwrap());
        set(0.0, 0.0);
        pinned_once(&bm, read(a), Tier::Dram, "SSD→DRAM");
        pinned_once(&bm, slow(&bm, a), Tier::Dram, "DRAM hit, slow path");
        set(0.0, 1.0);
        pinned_once(&bm, read(b), Tier::Nvm, "SSD→NVM");
        pinned_once(&bm, slow(&bm, b), Tier::Nvm, "NVM in place, slow path");
        set(1.0, 1.0);
        let before = bm.metrics();
        let promoted = read(b);
        assert_eq!(bm.metrics().delta(&before).shadow_commits, [1, 0, 0]);
        pinned_once(&bm, promoted, Tier::Dram, "shadow promotion");
        bm.assert_quiescent();
    }

    #[test]
    fn fine_copies_pin_the_closed_dram_word() {
        let bm = fine_manager();
        let fine = |pid| {
            drop(bm.fetch_read(pid).unwrap()); // SSD → NVM
            bm.fetch(pid, AccessIntent::Read).unwrap() // promoted to a fine copy
        };
        let pid = bm.allocate_page().unwrap();
        pinned_once(&bm, fine(pid), Tier::Dram, "fine promotion");
        pinned_once(&bm, slow(&bm, pid), Tier::Dram, "fine copy, slow path");
        assert!(!bm.mapping.get(&pid.0).unwrap().dram_pin.is_open());

        // Every DRAM frame holds a pinned fine copy: the next promotion
        // finds no frame and serves the NVM copy in place instead.
        let held: Vec<_> = (0..bm.dram_frames())
            .map(|_| fine(bm.allocate_page().unwrap()))
            .collect();
        let last = bm.allocate_page().unwrap();
        pinned_once(&bm, fine(last), Tier::Nvm, "NVM, fine promotion failed");
        drop(held);
        bm.assert_quiescent();
    }
}
