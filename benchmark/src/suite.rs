//! Running more than one workload: the whole suite, and A/A sets.
//!
//! Every workload runs in a child process of its own, so that each starts
//! from a fresh heap, pins itself before it creates a thread, and reports
//! its own peak memory.

use std::io::Write;
use std::process::{Command, Stdio};

use crate::report::metric_in;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::median;
use crate::RunArgs;

/// Run one workload in a child process, echo what it prints, and return
/// its last line — the JSON result — when it exited with code 0.
fn run_child(workload: &str, args: &RunArgs, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{text}");
        let _ = std::io::stdout().flush();
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}): {}",
            args.traced as u8, output.status
        ));
    }
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{workload}: no output"))
}

/// Every workload, untraced and — with `traced` — traced as well. Returns
/// whether all of them were correct.
pub fn run_all(args: &RunArgs, json_path: Option<&str>) -> bool {
    let mut ok = true;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            match run_child(w.name, &RunArgs { traced, ..*args }, true) {
                Ok(line) => lines.push(format!(
                    "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {line}}}",
                    w.name, traced as u8
                )),
                Err(e) => {
                    println!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    if let Some(path) = json_path {
        let body = format!("[\n{}\n]\n", lines.join(",\n"));
        if let Err(e) = std::fs::write(path, body) {
            println!("error: write {path}: {e}");
            ok = false;
        }
    }
    ok
}

/// A/A: run the untraced suite `sets` times on the same code and seed and
/// compare, per workload and end-to-end metric, the largest relative
/// difference between sets with the metric's bound. This is where the
/// bounds in `BENCHMARK.json` come from. Returns whether every difference
/// stayed within its bound.
pub fn run_aa(sets: usize, args: &RunArgs) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<24} {:>14} {:>10} {:>8}  values",
        "workload", "metric", "median", "max diff", "bound"
    );
    for w in WORKLOADS {
        let mut lines = Vec::new();
        for _ in 0..sets {
            match run_child(
                w.name,
                &RunArgs {
                    traced: false,
                    ..*args
                },
                false,
            ) {
                Ok(line) => lines.push(line),
                Err(e) => {
                    println!("error: {e}");
                    ok = false;
                }
            }
        }
        for def in END_TO_END {
            let values: Vec<f64> = lines
                .iter()
                .filter_map(|l| metric_in(l, def.name))
                .collect();
            if values.len() != sets {
                println!(
                    "error: {} {} reported in {} of {sets} sets",
                    w.name,
                    def.name,
                    values.len()
                );
                ok = false;
                continue;
            }
            let mid = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let diff = if mid == 0.0 { 0.0 } else { (hi - lo) / mid };
            let within = diff <= def.bound;
            ok &= within;
            println!(
                "{:<16} {:<24} {:>14.4} {:>9.2}% {:>7.0}%  {:?}{}",
                w.name,
                def.name,
                mid,
                100.0 * diff,
                100.0 * def.bound,
                values,
                if within { "" } else { "  EXCEEDS BOUND" }
            );
        }
    }
    ok
}
