//! Integration tests for the background maintenance service: watermark
//! pre-eviction, backpressure fallback under injected faults, crash
//! interaction, and fetch-vs-worker races.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spitfire_core::{
    BufferManager, BufferManagerConfig, MaintenanceConfig, MigrationPolicy, PageId,
};
use spitfire_device::{
    DeviceKind, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, PersistenceTracking,
    TimeScale, Trigger,
};

const PAGE: usize = 4096;
const DRAM_FRAMES: usize = 4;
const NVM_FRAMES: usize = 8;

fn manager(maintenance: MaintenanceConfig, policy: MigrationPolicy) -> Arc<BufferManager> {
    let config = BufferManagerConfig::builder()
        .page_size(PAGE)
        .dram_capacity(DRAM_FRAMES * PAGE)
        .nvm_capacity(NVM_FRAMES * (PAGE + 64))
        .policy(policy)
        .persistence(PersistenceTracking::Full)
        .time_scale(TimeScale::ZERO)
        .maintenance(maintenance)
        .build()
        .unwrap();
    Arc::new(BufferManager::new(config).unwrap())
}

fn fill(bm: &BufferManager, pid: PageId, byte: u8) {
    let g = bm.fetch_write(pid).unwrap();
    g.write(0, &vec![byte; PAGE]).unwrap();
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every write on every device fails fatally: maintenance cannot free a
/// single dirty frame.
fn all_writes_fatal() -> FaultPlan {
    let mut plan = FaultPlan::new(7);
    for device in [DeviceKind::Dram, DeviceKind::Nvm, DeviceKind::Ssd] {
        plan = plan.rule(
            FaultRule::any(Trigger::Always, FaultKind::Fatal)
                .on_device(device)
                .on_op(FaultOp::Write),
        );
    }
    plan.rule(
        FaultRule::any(Trigger::Always, FaultKind::Fatal)
            .on_device(DeviceKind::Ssd)
            .on_op(FaultOp::Sync),
    )
}

/// Pool exhausted while the workers are stalled by injected fatal faults:
/// fetches must fall back to inline eviction (counted as backpressure),
/// not deadlock or fail.
#[test]
fn backpressure_fallback_when_workers_stalled() {
    // Huge interval: workers only run when kicked, so the fault window is
    // deterministic.
    let maint = MaintenanceConfig {
        interval_us: 60_000_000,
    };
    // Eager D_w routes writes through DRAM and N_w admits evicted dirty
    // pages to NVM: after the fill below, both pools are full of dirty
    // resident pages.
    let bm = manager(maint, MigrationPolicy::eager());

    let pids: Vec<PageId> = (0..16).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill(&bm, *pid, i as u8);
    }

    // Stall the workers: every write-back they attempt now fails fatally.
    bm.admin()
        .set_fault_injector(Some(Arc::new(FaultInjector::new(all_writes_fatal()))));
    let maintenance = bm.maintenance();
    maintenance.start();
    // The start() kick runs at least one (fruitless) refill cycle.
    wait_for("a stalled maintenance cycle", || {
        bm.metrics().maint_cycles >= 1
    });
    let (dram_free, nvm_free) = bm.free_frames();
    assert_eq!(
        (dram_free, nvm_free),
        (0, 0),
        "stalled workers must not have freed dirty frames"
    );

    // Foreground resumes fault-free. Misses find the free lists empty and
    // must take the inline eviction path — successfully.
    bm.admin().set_fault_injector(None);
    for (i, pid) in pids.iter().enumerate() {
        let g = bm.fetch_read(*pid).unwrap();
        let mut b = [0u8; 8];
        g.read(0, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == i as u8), "page {pid} corrupted");
    }
    let m = bm.metrics();
    assert!(
        m.backpressure_fallbacks >= 1,
        "inline fallback must be counted (got {})",
        m.backpressure_fallbacks
    );
    maintenance.stop();
    bm.assert_quiescent();
}

/// Threaded maintenance stops across a simulated crash; frames the workers
/// freed before the crash are invalidated with everything else, and the
/// post-recovery state is consistent.
#[test]
fn maintenance_parks_across_crash() {
    let maint = MaintenanceConfig { interval_us: 200 };
    let bm = manager(maint, MigrationPolicy::lazy());
    let maintenance = bm.maintenance();
    maintenance.start();

    let pids: Vec<PageId> = (0..24).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill(&bm, *pid, i as u8);
    }
    wait_for("a maintenance cycle", || bm.metrics().maint_cycles >= 1);

    // Join every worker: returns only once none is mid-cycle, so no
    // maintenance I/O races the crash below.
    maintenance.stop();
    assert!(!maintenance.is_running(), "stopped workers are joined");
    bm.simulate_crash();
    let recovered = bm.recover_nvm_buffer();
    bm.recover_page_allocator();

    // Tier bookkeeping must be consistent: the crash dropped every frame,
    // recovery re-adopted exactly the NVM-resident set. (Checked while the
    // workers are still stopped — starting them would immediately start
    // pre-evicting again.)
    let (dram_pages, nvm_pages) = bm.resident_pages();
    let (dram_frames, nvm_frames) = bm.occupied_frames();
    assert_eq!(dram_pages, dram_frames, "DRAM mapping/pool mismatch");
    assert_eq!(nvm_pages, nvm_frames, "NVM mapping/pool mismatch");
    assert_eq!(nvm_pages, recovered.len(), "NVM scan adopted every page");
    maintenance.start();

    // The manager keeps working after restart (workers refill again).
    for pid in &pids {
        let _ = bm.fetch_read(*pid).unwrap();
    }
    maintenance.stop();
    bm.assert_quiescent();
}

/// 8 fetch threads race the maintenance workers; every thread must read
/// its own writes and the manager must be quiescent afterwards.
#[test]
fn fetch_storm_races_maintenance_workers() {
    let maint = MaintenanceConfig { interval_us: 50 };
    let bm = manager(maint, MigrationPolicy::lazy());
    let maintenance = bm.maintenance();
    maintenance.start();

    const THREADS: usize = 8;
    const PAGES_PER_THREAD: usize = 4;
    const ROUNDS: usize = 40;
    let pids: Vec<PageId> = (0..THREADS * PAGES_PER_THREAD)
        .map(|_| bm.allocate_page().unwrap())
        .collect();
    let pids = Arc::new(pids);

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let bm = Arc::clone(&bm);
        let pids = Arc::clone(&pids);
        handles.push(std::thread::spawn(move || {
            let mine = &pids[t * PAGES_PER_THREAD..(t + 1) * PAGES_PER_THREAD];
            for round in 0..ROUNDS {
                let byte = (t * ROUNDS + round) as u8;
                for pid in mine {
                    let g = bm.fetch_write(*pid).unwrap();
                    g.write(0, &[byte; 64]).unwrap();
                    drop(g);
                    let g = bm.fetch_read(*pid).unwrap();
                    let mut b = [0u8; 64];
                    g.read(0, &mut b).unwrap();
                    assert!(b.iter().all(|&x| x == byte), "lost own write on {pid}");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let m = bm.metrics();
    assert!(m.maint_cycles >= 1, "workers must have run");
    maintenance.stop();
    bm.assert_quiescent();
}

/// In steady state at default watermarks the workers keep up: a paced
/// single-threaded scan over a DRAM-overflowing working set never needs
/// the inline fallback.
#[test]
fn steady_state_has_no_backpressure() {
    let bm = manager(MaintenanceConfig::default(), MigrationPolicy::lazy());
    let pids: Vec<PageId> = (0..32).map(|_| bm.allocate_page().unwrap()).collect();
    for (i, pid) in pids.iter().enumerate() {
        fill(&bm, *pid, i as u8);
    }
    let maintenance = bm.maintenance();
    maintenance.start();
    // Let the initial refill reach the high watermarks.
    wait_for("initial refill", || {
        let (d, n) = bm.free_frames();
        d >= 1 && n >= 1
    });
    for _ in 0..4 {
        for pid in &pids {
            // A paced workload: in real deployments each miss costs device
            // I/O, giving workers time to refill. Emulate that pacing by
            // letting the refill land before the next miss.
            wait_for("worker refill between misses", || {
                let (d, n) = bm.free_frames();
                d >= 1 && n >= 1
            });
            let _ = bm.fetch_read(*pid).unwrap();
        }
    }
    assert_eq!(
        bm.metrics().backpressure_fallbacks,
        0,
        "a paced workload at default watermarks must never fall back inline"
    );
    maintenance.stop();
    bm.assert_quiescent();
}
