//! Chaos recovery explorer CLI.
//!
//! Runs the crash-schedule explorer against the full database stack and
//! reports a verdict per run. Exit status is non-zero if any run
//! observed an invariant violation, so this doubles as a CI gate:
//!
//! ```text
//! chaos_recovery --seed 7 --schedule every-4-fences
//! chaos_recovery --matrix            # the fixed CI seed × schedule grid
//! ```
//!
//! Every run is deterministic in `(--seed, --schedule, --fault-probability)`;
//! re-running a failing line reproduces it exactly.

use std::process::ExitCode;

use spitfire_chaos::{
    ChaosConfig, CrashSchedule, FaultKind, FaultOp, FaultPlan, FaultRule, Trigger, Verdict,
};

const USAGE: &str = "usage: chaos_recovery [--seed N] [--schedule S] [--txns N] [--keys N] \
     [--checkpoint-every N] [--fault-probability P] [--file-ssd] [--matrix]
  --seed N               rng seed for ops and crash points (default 1)
  --schedule S           every-K-fences | every-N-ops | at-op-N | every-K-migrations |
                         mid-checkpoint-M | torn-ssd-writes | random | none
  --txns N               transactions per run (default 200)
  --keys N               key-space size (default 16)
  --checkpoint-every N   checkpoint every N transactions (default 64; at 16 a run takes
                         12, so crashes land on reused snapshot blocks)
  --fault-probability P  background transient-fault rate, e.g. 0.01 (default 0)
  --file-ssd             back the SSD tier with a real file (O_DIRECT when supported)
  --matrix               run the fixed CI grid (seeds 1..=8 x 7 schedules)";

/// Background-noise plan: transient errors on every device path plus
/// occasional write-latency spikes. The rate is kept low enough that
/// exhausting the 8-attempt retry loop is impossible in practice
/// (p^9 ~ 1e-18 at p = 0.01), so these faults must be fully absorbed.
fn noise_plan(seed: u64, p: f64) -> Option<FaultPlan> {
    if p <= 0.0 {
        return None;
    }
    Some(
        FaultPlan::new(seed)
            .rule(FaultRule::any(
                Trigger::Probability(p),
                FaultKind::Transient,
            ))
            .rule(
                FaultRule::any(Trigger::Probability(p / 4.0), FaultKind::LatencyUs(20))
                    .on_op(FaultOp::Write),
            ),
    )
}

fn print_verdict(seed: u64, schedule: &CrashSchedule, v: &Verdict) {
    let status = if v.violations.is_empty() {
        "ok"
    } else {
        "FAIL"
    };
    println!(
        "seed={seed:<3} schedule={:<16} {status}: txns={} commits={} aborts={} \
         crashes={} checkpoints={} io_failures={} io_retries={} faults={}",
        schedule.label(),
        v.txns_run,
        v.commits,
        v.aborts,
        v.crashes,
        v.checkpoints,
        v.io_failures,
        v.io_retries,
        v.faults.injected,
    );
    for violation in &v.violations {
        println!("    violation: {violation}");
    }
}

fn run_one(
    seed: u64,
    schedule: CrashSchedule,
    txns: u64,
    keys: u64,
    checkpoint_every: u64,
    p: f64,
    file_ssd: bool,
) -> bool {
    let config = ChaosConfig {
        seed,
        schedule,
        txns,
        keys,
        checkpoint_every: Some(checkpoint_every),
        plan: noise_plan(seed, p),
        file_ssd,
        ..ChaosConfig::default()
    };
    let v = spitfire_chaos::run(&config);
    print_verdict(seed, &schedule, &v);
    v.violations.is_empty()
}

fn main() -> ExitCode {
    let mut seed = 1u64;
    let mut schedule = CrashSchedule::None;
    let mut txns = 200u64;
    let mut keys = 16u64;
    let mut checkpoint_every = 64u64;
    let mut probability = 0.0f64;
    let mut file_ssd = false;
    let mut matrix = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--seed" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => return usage_error("--seed needs an integer"),
            },
            "--schedule" => match value(&mut i).as_deref().and_then(CrashSchedule::parse) {
                Some(s) => schedule = s,
                None => {
                    return usage_error(
                        "--schedule needs every-K-fences | every-N-ops | at-op-N | \
                         every-K-migrations | mid-checkpoint-M | torn-ssd-writes | \
                         random | none",
                    )
                }
            },
            "--txns" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => txns = n,
                None => return usage_error("--txns needs an integer"),
            },
            "--keys" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => keys = n,
                None => return usage_error("--keys needs an integer"),
            },
            "--checkpoint-every" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => checkpoint_every = n,
                _ => return usage_error("--checkpoint-every needs a positive integer"),
            },
            "--fault-probability" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(p) => probability = p,
                None => return usage_error("--fault-probability needs a float"),
            },
            "--file-ssd" => file_ssd = true,
            "--matrix" => matrix = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return usage_error("");
            }
        }
        i += 1;
    }

    if matrix {
        // The CI grid: fixed seeds x crash schedules, with background
        // transient noise. Torn WAL writes and dropped flushes stay out
        // of the grid (a silently dropped fsync is genuine, intentional
        // data loss — targeted detection tests cover those); the
        // torn-ssd-writes schedule is safe to include because it pairs
        // every torn SSD page write with failing syncs, so the torn image
        // can never be trusted. It always runs file-backed; --file-ssd
        // flips the remaining schedules onto the real-file backend too.
        let schedules = [
            CrashSchedule::EveryKFences(2),
            CrashSchedule::EveryKFences(8),
            CrashSchedule::EveryNOps(37),
            CrashSchedule::RandomOps,
            CrashSchedule::MidCheckpoint(2),
            CrashSchedule::EveryKMigrations(2),
            CrashSchedule::TornSsdWrites,
        ];
        let mut failures = 0u32;
        let total = 8 * schedules.len();
        for seed in 1..=8u64 {
            for schedule in schedules {
                if !run_one(seed, schedule, txns, keys, checkpoint_every, 0.01, file_ssd) {
                    failures += 1;
                }
            }
        }
        if failures > 0 {
            eprintln!("{failures} run(s) violated recovery invariants");
            return ExitCode::FAILURE;
        }
        let backend = if file_ssd { "file-backed" } else { "emulated" };
        println!("matrix clean: {total}/{total} runs upheld every invariant ({backend} SSD)");
        return ExitCode::SUCCESS;
    }

    if run_one(
        seed,
        schedule,
        txns,
        keys,
        checkpoint_every,
        probability,
        file_ssd,
    ) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(message: &str) -> ExitCode {
    if !message.is_empty() {
        eprintln!("{message}");
    }
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}
