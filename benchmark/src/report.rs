//! What a run prints: the host block, every metric by name with its unit,
//! and as the last line the JSON object the driver reads.

use crate::spec::{unit_of, Metrics, END_TO_END, PER_LAYER};
use crate::{host, Outcome, RunArgs};

/// The host block: what a reader needs to judge whether two results were
/// produced under the same conditions.
pub fn host_block(args: &RunArgs, pinned: &Result<usize, String>) -> String {
    let pinned = match pinned {
        Ok(cpu) => format!("cpu {cpu}"),
        Err(e) => format!("NOT PINNED ({e})"),
    };
    format!(
        "host: logical_cpus={} pinned={pinned} cpu_model=\"{}\" git={} time_scale=REAL(load:ZERO) ssd_backend=emulated seed={} seconds={} scale={}",
        host::online_cpus().len(),
        host::cpu_model(),
        host::git_sha(),
        args.seed,
        args.seconds,
        args.scale,
    )
}

/// The per-layer metrics every workload takes the same way: the best
/// slice's 99th percentile, the pooled latency tail, the control loop on
/// either side of the measured phase (`ctl`), and the two-process control.
pub fn put_host_metrics(
    m: &mut Metrics,
    best_p99_ns: f64,
    lat: &mut crate::stats::Samples,
    ctl: (f64, f64),
) {
    m.put("e2e.lat_p99_us", best_p99_ns / 1e3);
    let (tail_pct, tail_ns) = lat.tail();
    m.put("e2e.lat_tail_us", tail_ns / 1e3);
    m.put("e2e.lat_tail_pct", tail_pct);
    m.put("host.ctl_before_ns", ctl.0);
    m.put("host.ctl_after_ns", ctl.1);
    m.put("host.parallel_speedup", host::parallel_speedup());
}

/// The names a run with these arguments must report.
pub fn declared(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    }
}

/// The last line of a run: exactly the keys the driver's contract names.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Print one run. Returns the JSON line and whether the run was correct:
/// no failed op, no wrong read, no lost write, and every declared metric
/// present once with a finite value.
pub fn print(
    workload: &str,
    args: &RunArgs,
    pinned: &Result<usize, String>,
    out: &Outcome,
) -> (String, bool) {
    println!(
        "benchmark: workload={workload} trace={} stream_hash={:016x}",
        args.traced as u8, out.stream_hash
    );
    println!("{}", host_block(args, pinned));
    for note in &out.notes {
        println!("{note}");
    }
    let complete = out.metrics.check_against(declared(args.traced).into_iter());
    if let Err(e) = &complete {
        println!("error: {e}");
    }
    for (name, value) in out.metrics.iter() {
        println!("metric {workload} {name} {value} {}", unit_of(name));
    }
    println!(
        "result: attempted={} failed={} failed_ops_share={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let correct = out.failed == 0 && complete.is_ok();
    (
        json_line(correct, out.attempted, out.failed, &out.metrics),
        correct,
    )
}

/// The value of metric `name` in a JSON line written by [`json_line`].
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find(',')?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_values() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127);
        m.put("ops_per_s", 51234.0);
        let line = json_line(true, 10, 0, &m);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(&line, "ops_per_s"), Some(51234.0));
        assert_eq!(metric_in(&line, "lat_p50_us"), None);
    }
}
