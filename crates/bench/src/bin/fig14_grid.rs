//! Figure 14 — Storage system design (grid search).
//!
//! Sweeps DRAM {0, 4, 8, 16, 32} × NVM {0, 40, 80, 160} (scaled sizes,
//! priced as if GB at Table 1 prices, over a fixed 200-unit SSD) running
//! Spitfire-Lazy on YCSB-RO/BA/WH with Zipf 0.5, reporting both the total
//! hierarchy cost and throughput/cost (ops per second per dollar).
//!
//! Paper expectation: read-intensive workloads favour a small-DRAM
//! three-tier hierarchy (4 + 80 on RO, 8 + 80 on BA); write-heavy favours
//! pure NVM-SSD because dirty-page flushing disappears.

use std::sync::Arc;
use std::time::Duration;

use spitfire_bench::{
    point, quick, runner, three_tier, worker_threads, ycsb_config, Flusher, Reporter, MB,
};
use spitfire_core::MigrationPolicy;
use spitfire_wkld::{run_workload, RawYcsb, YcsbMix};

/// Hierarchy cost with capacities interpreted at the paper's GB scale:
/// DRAM $10, NVM $4.5, SSD 200 GB × $2.8 = $560.
fn cost(dram_units: usize, nvm_units: usize) -> f64 {
    dram_units as f64 * 10.0 + nvm_units as f64 * 4.5 + 200.0 * 2.8
}

fn main() {
    let dram_sizes = if quick() {
        vec![0usize, 8, 32]
    } else {
        vec![0usize, 4, 8, 16, 32]
    };
    let nvm_sizes = if quick() {
        vec![0usize, 80]
    } else {
        vec![0usize, 40, 80, 160]
    };
    let db_bytes = if quick() { 24 * MB } else { 100 * MB };
    let threads = worker_threads();

    let mut r = Reporter::new(
        "fig14_grid",
        "Figure 14 (§6.6)",
        "best perf/price: RO -> 4 DRAM + 80 NVM; BA -> 8 + 80; WH -> pure \
         NVM-SSD (recovery flushing gone)",
    );
    r.headers(&["workload", "dram", "nvm", "cost $", "throughput", "ops/s/$"]);

    for mix in [YcsbMix::ReadOnly, YcsbMix::Balanced, YcsbMix::WriteHeavy] {
        let mut best: Option<(f64, String)> = None;
        for &dram in &dram_sizes {
            for &nvm in &nvm_sizes {
                if dram == 0 && nvm == 0 {
                    continue;
                }
                let bm = three_tier(dram * MB, nvm * MB, MigrationPolicy::lazy());
                let w = spitfire_bench::with_fast_setup(&bm, || {
                    RawYcsb::setup(&bm, ycsb_config(db_bytes, 0.5, mix))
                })
                .expect("setup");
                let _flusher = Flusher::start(Arc::clone(&bm), Duration::from_millis(400));
                let report =
                    run_workload(&runner(threads), |_, rng| w.execute(&bm, rng).expect("op"));
                let c = cost(dram, nvm);
                let per_dollar = report.throughput() / c;
                r.row(&[
                    mix.label().to_string(),
                    dram.to_string(),
                    nvm.to_string(),
                    format!("{c:.0}"),
                    point(&report),
                    format!("{per_dollar:.0}"),
                ]);
                let label = format!("DRAM {dram} + NVM {nvm}");
                if best.as_ref().map_or(true, |(b, _)| per_dollar > *b) {
                    best = Some((per_dollar, label));
                }
            }
        }
        let (score, label) = best.expect("at least one configuration");
        println!(
            "   {} best perf/price: {} ({score:.0} ops/s/$)",
            mix.label(),
            label
        );
    }
    r.done();
}
