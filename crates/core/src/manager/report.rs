//! Read-only views of the manager's state: residency and occupancy
//! probes, observability gauges and report export, and the
//! stress-harness quiescence assertion.

use std::sync::Arc;

use spitfire_obs as obs;
use spitfire_sync::AdmissionQueue;

use super::BufferManager;
use crate::descriptor::{CopyState, FrameRef};
use crate::metrics::{inclusivity_ratio, ShadowPath};
use crate::pool::Pool;
use crate::types::{MigrationPath, PageId, Tier};

impl BufferManager {
    /// Whether `pid` currently has a DRAM-resident copy. Non-blocking:
    /// returns `false` when the descriptor mutex is contended, so this is
    /// a monitoring probe, not a synchronization primitive.
    pub fn is_dram_resident(&self, pid: PageId) -> bool {
        self.mapping
            .get(&pid.0)
            .is_some_and(|desc| desc.state.try_lock().is_some_and(|st| st.dram.is_some()))
    }

    /// The inclusivity ratio of the DRAM and NVM buffers (paper §3.3,
    /// Table 2): pages resident in both, over pages resident in either.
    pub fn inclusivity(&self) -> f64 {
        let mut both = 0usize;
        let mut either = 0usize;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                let d = st.dram.is_some();
                let n = st.nvm.is_some();
                if d || n {
                    either += 1;
                }
                if d && n {
                    both += 1;
                }
            }
        });
        inclusivity_ratio(both, either)
    }

    /// Number of pages currently resident in (DRAM, NVM).
    pub fn resident_pages(&self) -> (usize, usize) {
        let mut dram = 0;
        let mut nvm = 0;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                dram += usize::from(st.dram.is_some());
                nvm += usize::from(st.nvm.is_some());
            }
        });
        (dram, nvm)
    }

    /// Frames currently occupied in the (DRAM, NVM) pools.
    pub fn occupied_frames(&self) -> (usize, usize) {
        (
            self.tier1.as_ref().map_or(0, Pool::occupied_frames),
            self.nvm.as_ref().map_or(0, Pool::occupied_frames),
        )
    }

    /// Number of dirty resident pages in (DRAM, NVM).
    pub fn dirty_pages(&self) -> (usize, usize) {
        fn is_dirty(slot: &Option<CopyState>) -> bool {
            matches!(
                slot,
                Some(CopyState::Resident { dirty: true, .. } | CopyState::Busy { dirty: true, .. })
            )
        }
        let mut dram = 0;
        let mut nvm = 0;
        self.mapping.for_each(|_, desc| {
            if let Some(st) = desc.state.try_lock() {
                dram += usize::from(is_dirty(&st.dram));
                nvm += usize::from(is_dirty(&st.nvm));
            }
        });
        (dram, nvm)
    }

    /// Current occupancy of the NVM admission queue (0 without an NVM tier).
    pub fn admission_queue_len(&self) -> usize {
        self.admission.as_ref().map_or(0, AdmissionQueue::len)
    }

    /// Register this manager's state as named observability gauges (tier
    /// occupancy, dirty pages, admission-queue length, policy vector, device
    /// byte counters). Gauges hold a [`std::sync::Weak`] and disappear from
    /// the registry once the manager is dropped.
    pub fn register_obs_gauges(self: &Arc<Self>) {
        fn gauge(bm: &Arc<BufferManager>, name: &'static str, f: fn(&BufferManager) -> f64) {
            let w = Arc::downgrade(bm);
            obs::register_gauge(name, move || w.upgrade().map(|bm| f(&bm)));
        }
        gauge(self, "dram_frames_total", |bm| bm.dram_frames() as f64);
        gauge(self, "nvm_frames_total", |bm| bm.nvm_frames() as f64);
        gauge(self, "dram_occupied_frames", |bm| {
            bm.occupied_frames().0 as f64
        });
        gauge(self, "nvm_occupied_frames", |bm| {
            bm.occupied_frames().1 as f64
        });
        gauge(self, "dram_dirty_pages", |bm| bm.dirty_pages().0 as f64);
        gauge(self, "nvm_dirty_pages", |bm| bm.dirty_pages().1 as f64);
        gauge(self, "admission_queue_len", |bm| {
            bm.admission_queue_len() as f64
        });
        gauge(self, "policy_dr", |bm| bm.policy().dr);
        gauge(self, "policy_dw", |bm| bm.policy().dw);
        gauge(self, "policy_nr", |bm| bm.policy().nr);
        gauge(self, "policy_nw", |bm| bm.policy().nw);
        gauge(self, "buffer_hit_ratio", |bm| {
            bm.metrics().buffer_hit_ratio()
        });
        gauge(self, "dram_free_frames", |bm| bm.free_frames().0 as f64);
        gauge(self, "nvm_free_frames", |bm| bm.free_frames().1 as f64);
        gauge(self, "backpressure_fallbacks", |bm| {
            bm.metrics().backpressure_fallbacks as f64
        });
        // Per-path shadow-migration abort rates: aborts / (aborts +
        // commits). A rising promote rate means foreground writes are
        // racing promotions; evict/flush rates expose write-back pressure.
        gauge(self, "shadow_abort_rate_promote", |bm| {
            bm.metrics().shadow_abort_rate(ShadowPath::Promote)
        });
        gauge(self, "shadow_abort_rate_evict", |bm| {
            bm.metrics().shadow_abort_rate(ShadowPath::Evict)
        });
        gauge(self, "shadow_abort_rate_flush", |bm| {
            bm.metrics().shadow_abort_rate(ShadowPath::Flush)
        });
        for (tier, label) in [(Tier::Dram, "dram"), (Tier::Nvm, "nvm"), (Tier::Ssd, "ssd")] {
            let w = Arc::downgrade(self);
            obs::register_gauge(format!("{label}_bytes_read"), move || {
                let stats = w.upgrade()?.device_stats(tier)?;
                Some(stats.snapshot().bytes_read as f64)
            });
            let w = Arc::downgrade(self);
            obs::register_gauge(format!("{label}_bytes_written"), move || {
                let stats = w.upgrade()?.device_stats(tier)?;
                Some(stats.snapshot().bytes_written as f64)
            });
        }
    }

    /// Add this manager's counters ([`crate::metrics::BufferMetrics`], per-device stats) and
    /// point-in-time gauges to an observability report. Gauges already
    /// present in the report (e.g. from registered weak gauges) are not
    /// duplicated.
    pub fn fill_obs_report(&self, report: &mut obs::Report) {
        let m = self.metrics.snapshot();
        report.add_counter("dram_hits", m.dram_hits);
        report.add_counter("nvm_hits", m.nvm_hits);
        report.add_counter("ssd_fetches", m.ssd_fetches);
        report.add_counter("evictions_dram", m.evictions_dram);
        report.add_counter("evictions_nvm", m.evictions_nvm);
        report.add_counter("discards", m.discards);
        report.add_counter("fetch_fast", m.fetch_fast);
        report.add_counter("fetch_fallbacks", m.fetch_fallbacks);
        report.add_counter("pin_restarts", m.pin_restarts);
        report.add_counter("backpressure_fallbacks", m.backpressure_fallbacks);
        report.add_counter("maint_cycles", m.maint_cycles);
        report.add_counter("maint_evictions", m.maint_evictions);
        report.add_counter("maint_writebacks", m.maint_writebacks);
        report.add_counter("migrations_aborted", m.migrations_aborted);
        for path in ShadowPath::ALL {
            let name = path.name();
            report.add_counter(
                format!("shadow_aborts_{name}"),
                m.shadow_aborts[path as usize],
            );
            report.add_counter(
                format!("shadow_commits_{name}"),
                m.shadow_commits[path as usize],
            );
        }
        for path in MigrationPath::ALL {
            let label = path.label().replace("->", "_to_");
            report.add_counter(format!("migrations_{label}"), m.path(path));
        }
        for (tier, label) in [(Tier::Dram, "dram"), (Tier::Nvm, "nvm"), (Tier::Ssd, "ssd")] {
            if let Some(stats) = self.device_stats(tier) {
                let s = stats.snapshot();
                report.add_counter(format!("{label}_read_ops"), s.read_ops);
                report.add_counter(format!("{label}_write_ops"), s.write_ops);
                report.add_counter(format!("{label}_bytes_read"), s.bytes_read);
                report.add_counter(format!("{label}_bytes_written"), s.bytes_written);
                report.add_counter(format!("{label}_bytes_flushed"), s.bytes_flushed);
                report.add_counter(format!("{label}_fences"), s.fences);
            }
        }
        let have: std::collections::HashSet<&str> =
            report.gauges.iter().map(|(n, _)| n.as_str()).collect();
        let mut fresh: Vec<(String, f64)> = Vec::new();
        let mut gauge = |name: &str, v: f64| {
            if !have.contains(name) {
                fresh.push((name.to_string(), v));
            }
        };
        let (dram_occ, nvm_occ) = self.occupied_frames();
        gauge("dram_occupied_frames", dram_occ as f64);
        gauge("nvm_occupied_frames", nvm_occ as f64);
        let (dram_free, nvm_free) = self.free_frames();
        gauge("dram_free_frames", dram_free as f64);
        gauge("nvm_free_frames", nvm_free as f64);
        let (dram_dirty, nvm_dirty) = self.dirty_pages();
        gauge("dram_dirty_pages", dram_dirty as f64);
        gauge("nvm_dirty_pages", nvm_dirty as f64);
        gauge("admission_queue_len", self.admission_queue_len() as f64);
        let p = self.policy();
        gauge("policy_dr", p.dr);
        gauge("policy_dw", p.dw);
        gauge("policy_nr", p.nr);
        gauge("policy_nw", p.nw);
        gauge("buffer_hit_ratio", m.buffer_hit_ratio());
        gauge("inclusivity", self.inclusivity());
        for path in ShadowPath::ALL {
            gauge(
                &format!("shadow_abort_rate_{}", path.name()),
                m.shadow_abort_rate(path),
            );
        }
        report.gauges.extend(fresh);
    }

    /// Assert that no pins are outstanding and every descriptor's pin
    /// words agree with its copy states (stress-harness invariant check;
    /// call only when no guards are live and no migrations are running).
    ///
    /// Invariants checked per page: mutex pin counts are zero, optimistic
    /// pin counts are zero, the DRAM word is open iff the DRAM slot holds
    /// a Resident full-frame copy, and the NVM word is open iff the NVM
    /// slot holds one *and* no DRAM copy shadows it.
    pub fn assert_quiescent(&self) {
        fn full_resident(slot: &Option<CopyState>) -> bool {
            matches!(
                slot,
                Some(CopyState::Resident {
                    frame: FrameRef::Full(_),
                    ..
                })
            )
        }
        fn mutex_pins(slot: &Option<CopyState>) -> u32 {
            match slot {
                Some(CopyState::Resident { pins, .. } | CopyState::Busy { pins, .. }) => *pins,
                _ => 0,
            }
        }
        self.mapping.for_each(|pid, desc| {
            let st = desc.state.lock();
            assert!(!st.shadow_dram, "page {pid}: dram shadow op in flight");
            assert!(!st.shadow_nvm, "page {pid}: nvm shadow op in flight");
            assert_eq!(mutex_pins(&st.dram), 0, "page {pid}: dram mutex pins");
            assert_eq!(mutex_pins(&st.nvm), 0, "page {pid}: nvm mutex pins");
            assert_eq!(desc.dram_pin.pins(), 0, "page {pid}: dram fast pins");
            assert_eq!(desc.nvm_pin.pins(), 0, "page {pid}: nvm fast pins");
            assert_eq!(
                desc.dram_pin.is_open(),
                full_resident(&st.dram),
                "page {pid}: dram word/slot disagree ({:?})",
                st.dram
            );
            assert_eq!(
                desc.nvm_pin.is_open(),
                st.dram.is_none() && full_resident(&st.nvm),
                "page {pid}: nvm word/slot disagree (dram {:?}, nvm {:?})",
                st.dram,
                st.nvm
            );
        });
    }
}
