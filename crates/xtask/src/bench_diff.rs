//! `cargo xtask bench-diff <parent.jsonl> <change.jsonl>`: compare repeated
//! runs of one benchmark workload on two commits.
//!
//! Each file holds result lines — the last stdout line of a
//! `benchmark --workload <w> --seed <n> --seconds <s> --trace 0` run — one
//! per run; line *i* of one file is paired with line *i* of the other (same
//! seed, run back to back). For every end-to-end metric of `BENCHMARK.json`
//! the table gives each side's quartiles, the change of the median, how
//! many pairs the change won, the metric's bound, and a verdict by the
//! rule the repo's perf claims are held to:
//!
//! * **improved** — at least [`MIN_PAIRS`] pairs, the change better in at
//!   least nine tenths of them (ties count for neither side), and the
//!   medians apart by more than the parent's own quartile distance;
//! * **worse** — the change's median worse than the parent's by more than
//!   the bound;
//! * **unresolved** — neither, but a side's quartile distance is wider
//!   than the bound, so "no regression" cannot be told from noise (unless
//!   every run of the change beats every run of the parent);
//! * **within bound** — otherwise.
//!
//! Exits non-zero when a metric is worse or a larger share of operations
//! failed.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::json::{self, Value};

/// Fewest pairs a gain may be claimed from.
pub const MIN_PAIRS: usize = 10;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

/// One run: its failure counts and its metrics in line order.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub attempted: f64,
    pub failed: f64,
    pub metrics: Vec<(String, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Unresolved,
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub spec: MetricSpec,
    pub parent: Quartiles,
    pub change: Quartiles,
    /// Change of the median relative to the parent's, signed as measured.
    pub change_pct: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// The `end_to_end` block of `BENCHMARK.json`.
pub fn specs(benchmark_json: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no `end_to_end` array")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a metric has no `{key}`"))
            };
            let name = text("name")?;
            let lower_is_better = match text("better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("BENCHMARK.json: {name}: better = `{other}`")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
            Ok(MetricSpec {
                name: name.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// The runs of a `.jsonl` file (blank lines skipped).
pub fn read_runs(text: &str) -> Result<Vec<Run>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let at = |e: &str| format!("line {}: {e}", i + 1);
            let doc = json::parse(line).map_err(|e| at(&e))?;
            let count = |key| doc.get(key).and_then(Value::as_f64);
            let Some(Value::Obj(fields)) = doc.get("metrics") else {
                return Err(at("no `metrics` object"));
            };
            let metrics = fields
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(Run {
                attempted: count("attempted").ok_or_else(|| at("no `attempted`"))?,
                failed: count("failed").ok_or_else(|| at("no `failed`"))?,
                metrics,
            })
        })
        .collect()
}

/// Quartiles by linear interpolation between order statistics.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
    }
}

/// Judge one metric from paired runs (`parent[i]` ran beside `change[i]`).
pub fn compare(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> Row {
    assert!(!parent.is_empty() && parent.len() == change.len());
    // Orient so that larger is better on every metric.
    let sign = if spec.lower_is_better { -1.0 } else { 1.0 };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * **c > sign * **p)
        .count();
    let (p, c) = (quartiles(parent), quartiles(change));
    let gain = sign * (c.median - p.median);
    let relative = |x: f64| {
        if x == 0.0 {
            0.0
        } else {
            x / p.median.abs() // ±inf off a zero base: any change is beyond any bound
        }
    };
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let spread = relative((p.q3 - p.q1).max(c.q3 - c.q1));
    let verdict =
        if parent.len() >= MIN_PAIRS && wins * 10 >= parent.len() * 9 && gain > p.q3 - p.q1 {
            Verdict::Improved
        } else if relative(-gain) > spec.bound {
            Verdict::Worse
        } else if spread > spec.bound && worst(change) <= best(parent) {
            Verdict::Unresolved
        } else {
            Verdict::WithinBound
        };
    Row {
        spec: spec.clone(),
        parent: p,
        change: c,
        change_pct: 100.0 * relative(c.median - p.median),
        wins,
        pairs: parent.len(),
        verdict,
    }
}

/// One row per spec'd metric present in every run of both sides.
pub fn diff(specs: &[MetricSpec], parent: &[Run], change: &[Run]) -> Result<Vec<Row>, String> {
    if parent.is_empty() || parent.len() != change.len() {
        return Err(format!(
            "need the same number of runs on both sides, got {} and {}",
            parent.len(),
            change.len()
        ));
    }
    let column = |runs: &[Run], name: &str| -> Option<Vec<f64>> {
        runs.iter()
            .map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect()
    };
    specs
        .iter()
        .map(|spec| {
            let missing = || format!("metric `{}` missing from a run", spec.name);
            let p = column(parent, &spec.name).ok_or_else(missing)?;
            let c = column(change, &spec.name).ok_or_else(missing)?;
            Ok(compare(spec, &p, &c))
        })
        .collect()
}

/// Four significant digits, no exponent.
fn number(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// The rows as a Markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| metric | unit | parent q1 / median / q3 | change q1 / median / q3 | change | pairs won | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let three =
        |q: &Quartiles| format!("{} / {} / {}", number(q.q1), number(q.median), number(q.q3));
    for r in rows {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {:+.1} % | {}/{} | {} % | {} |",
            r.spec.name,
            r.spec.unit,
            three(&r.parent),
            three(&r.change),
            r.change_pct,
            r.wins,
            r.pairs,
            (r.spec.bound * 1000.0).round() / 10.0,
            r.verdict.label(),
        );
    }
    out
}

/// Failed over attempted operations, summed over a side's runs.
fn failed_share(runs: &[Run]) -> (f64, f64) {
    runs.iter()
        .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted))
}

pub fn run(root: &std::path::Path, args: &[String]) -> ExitCode {
    let [parent_path, change_path] = args else {
        eprintln!("usage: cargo xtask bench-diff <parent.jsonl> <change.jsonl>");
        return ExitCode::FAILURE;
    };
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let runs = |path: &String| {
        read(path.as_ref()).and_then(|t| read_runs(&t).map_err(|e| format!("{path}: {e}")))
    };
    let loaded = read(&root.join("BENCHMARK.json"))
        .and_then(|t| specs(&t))
        .and_then(|s| Ok((s, runs(parent_path)?, runs(change_path)?)));
    let rows = loaded.and_then(|(specs, parent, change)| {
        let rows = diff(&specs, &parent, &change)?;
        Ok((rows, failed_share(&parent), failed_share(&change)))
    });
    let (rows, parent_failed, change_failed) = match rows {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", render(&rows));
    println!(
        "\nfailed ops: parent {} of {}, change {} of {}",
        parent_failed.0, parent_failed.1, change_failed.0, change_failed.1
    );
    let more_failures = change_failed.0 * parent_failed.1 > parent_failed.0 * change_failed.1;
    if more_failures || rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "lat_p50_us".into(),
            unit: "us".into(),
            lower_is_better: true,
            bound,
        }
    }

    /// Ten values spread evenly over `mid ± half`.
    fn around(mid: f64, half: f64) -> Vec<f64> {
        (0..10)
            .map(|i| mid - half + 2.0 * half * i as f64 / 9.0)
            .collect()
    }

    #[test]
    fn quartiles_interpolate() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn a_gain_needs_the_wins_the_gap_and_ten_pairs() {
        let parent = around(2.0, 0.1);
        let change = around(1.7, 0.1);
        let row = compare(&lower(0.25), &parent, &change);
        assert_eq!(
            (row.verdict, row.wins, row.pairs),
            (Verdict::Improved, 10, 10)
        );
        assert!((row.change_pct + 15.0).abs() < 1e-9);
        // Same medians, but the change loses two pairs.
        let mut mixed = change.clone();
        mixed[0] = 1.95; // beside the parent's 1.90
        mixed[9] = 2.15; // beside the parent's 2.10
        let row = compare(&lower(0.25), &parent, &mixed);
        assert_eq!((row.verdict, row.wins), (Verdict::WithinBound, 8));
        // Wins every pair, but by less than the parent's quartile distance.
        let close: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert_eq!(
            compare(&lower(0.25), &parent, &close).verdict,
            Verdict::WithinBound
        );
        // Nine pairs are not enough to claim anything.
        let row = compare(&lower(0.25), &parent[..9], &change[..9]);
        assert_eq!((row.verdict, row.wins), (Verdict::WithinBound, 9));
        // Direction: the same numbers on a higher-is-better metric regress.
        let higher = MetricSpec {
            lower_is_better: false,
            bound: 0.1,
            ..lower(0.0)
        };
        let row = compare(&higher, &parent, &change);
        assert_eq!((row.verdict, row.wins), (Verdict::Worse, 0));
    }

    #[test]
    fn regressions_and_noise_are_told_apart() {
        // +5 % against a 3 % bound.
        let row = compare(&lower(0.03), &around(100.0, 0.5), &around(105.0, 0.5));
        assert_eq!(row.verdict, Verdict::Worse);
        // +1 % against a 3 % bound, tight runs.
        let row = compare(&lower(0.03), &around(100.0, 0.5), &around(101.0, 0.5));
        assert_eq!(row.verdict, Verdict::WithinBound);
        // Same medians, but the runs spread wider than the bound.
        let row = compare(&lower(0.03), &around(100.0, 10.0), &around(101.0, 10.0));
        assert_eq!(row.verdict, Verdict::Unresolved);
        // A tie is a win for neither side.
        let same = around(5.0, 0.0);
        let row = compare(&lower(0.03), &same, &same);
        assert_eq!(
            (row.verdict, row.wins, row.change_pct),
            (Verdict::WithinBound, 0, 0.0)
        );
        // Off a zero base any worsening is beyond the bound, none is none.
        let zeros = vec![0.0; 10];
        assert_eq!(
            compare(&lower(0.03), &zeros, &zeros).verdict,
            Verdict::WithinBound
        );
        assert_eq!(compare(&lower(0.03), &zeros, &same).verdict, Verdict::Worse);
    }

    const BENCHMARK: &str = r#"{"command": ["cargo"], "end_to_end": [
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
        {"name": "nvm_write_bytes_per_op", "unit": "B/op", "better": "lower", "bound": 0.06}]}"#;

    fn line(ops: f64, nvm: f64, failed: u32) -> String {
        format!(
            r#"{{"correct": true, "attempted": 1000, "failed": {failed}, "metrics": {{"ops_per_s": {{"value": {ops}, "unit": "ops/s"}}, "nvm_write_bytes_per_op": {{"value": {nvm}, "unit": "B/op"}}, "extra": {{"value": 1, "unit": "x"}}}}}}"#
        )
    }

    #[test]
    fn canned_lines_end_to_end() {
        let specs = specs(BENCHMARK).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(!specs[0].lower_is_better && specs[1].lower_is_better);
        let file = |ops: &[f64], nvm: f64| {
            let lines: Vec<String> = ops.iter().map(|o| line(*o, nvm, 0)).collect();
            read_runs(&(lines.join("\n") + "\n\n")).unwrap()
        };
        let parent = file(&around(470e3, 20e3), 5.5427);
        let change = file(&around(531e3, 20e3), 5.6698);
        let rows = diff(&specs, &parent, &change).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Improved);
        // +2.3 %, identical run to run, bound 6 %.
        assert_eq!((rows[1].verdict, rows[1].wins), (Verdict::WithinBound, 0));
        let table = render(&rows);
        assert!(
            table.contains("| `ops_per_s` | ops/s | 460000 / 470000 / 480000 |"),
            "{table}"
        );
        assert!(
            table.contains(
                "| `nvm_write_bytes_per_op` | B/op | 5.543 / 5.543 / 5.543 | \
                 5.670 / 5.670 / 5.670 | +2.3 % | 0/10 | 6 % | within bound |"
            ),
            "{table}"
        );
        assert_eq!(failed_share(&parent), (0.0, 10_000.0));

        // Mismatched files and missing metrics are errors, not rows.
        assert!(diff(&specs, &parent, &change[..9]).is_err());
        let bare = read_runs(r#"{"attempted": 1, "failed": 0, "metrics": {}}"#).unwrap();
        assert!(diff(&specs, &bare, &bare).is_err());
        assert!(read_runs("not json").is_err());
        assert!(read_runs(r#"{"metrics": {}}"#).is_err());
    }
}
