//! Tests of the benchmark itself: that it is deterministic where it claims
//! to be, that it reports exactly the metrics `BENCHMARK.json` lists, and
//! that the two statements of the contract agree.
//!
//! Runs use `--scale 0.005`; each takes a few seconds.

use spitfire_benchmark::report::{declared, json_line, metric_in};
use spitfire_benchmark::spec::{unit_of, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spitfire_benchmark::{run_workload, serverkv, ycsb, RunArgs};

const SMOKE: RunArgs = RunArgs {
    seed: 7,
    seconds: RUN_SECONDS as f64,
    scale: 0.005,
    traced: false,
};

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `BENCHMARK.json` as `spec.rs` would write it. Regenerate the file with
/// `BLESS=1 cargo test --manifest-path benchmark/Cargo.toml benchmark_json`.
fn render_benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name, d.unit, d.better, d.bound
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name, d.unit, d.better
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {workloads}\n  ],\n  \
         \"end_to_end\": [\n    {end_to_end}\n  ],\n  \
         \"per_layer\": [\n    {per_layer}\n  ]\n}}\n"
    )
}

#[test]
fn benchmark_json_states_what_spec_rs_states() {
    let want = render_benchmark_json();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(BENCHMARK_JSON, &want).unwrap();
    }
    let have = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        have, want,
        "BENCHMARK.json and benchmark/src/spec.rs disagree; see render_benchmark_json"
    );
}

#[test]
fn names_units_and_bounds_fit_the_contract() {
    let name_ok = |n: &str| {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    names.extend(END_TO_END.iter().map(|d| d.name));
    names.extend(PER_LAYER.iter().map(|d| d.name));
    for n in &names {
        assert!(name_ok(n), "bad name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    for d in END_TO_END {
        assert!(
            unit_ok(d.unit) && ["lower", "higher"].contains(&d.better),
            "{d:?}"
        );
        assert!(d.bound > 0.0 && d.bound <= 0.25, "{d:?}");
    }
    for d in PER_LAYER {
        assert!(
            unit_ok(d.unit) && ["lower", "higher"].contains(&d.better),
            "{d:?}"
        );
    }
    for w in WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
            "{w:?}"
        );
    }
    assert!((2..=8).contains(&WORKLOADS.len()) && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s takes the largest bound"
    );
}

#[test]
fn a_seed_fixes_the_op_stream() {
    for spec in &ycsb::SPECS {
        let hash = |seed| ycsb::stream_for(spec, &RunArgs { seed, ..SMOKE }).hash();
        assert_eq!(hash(7), hash(7), "{}", spec.name);
        assert_ne!(hash(7), hash(8), "{}", spec.name);
    }
    let hash = |seed, conn| serverkv::stream_for(&RunArgs { seed, ..SMOKE }, conn, 1000).hash();
    assert_eq!(hash(7, 0), hash(7, 0));
    assert_ne!(hash(7, 0), hash(8, 0));
    assert_ne!(
        hash(7, 0),
        hash(7, 1),
        "connections get streams of their own"
    );
}

/// With one client thread and ticked maintenance, every counter the crates
/// publish repeats exactly.
#[test]
fn in_process_counters_repeat_exactly() {
    for spec in &ycsb::SPECS {
        let first = ycsb::run(spec, SMOKE).unwrap();
        let second = ycsb::run(spec, SMOKE).unwrap();
        assert_eq!(first.failed, 0, "{}: {:?}", spec.name, first.notes);
        assert_eq!(first.stream_hash, second.stream_hash);
        assert_eq!(first.counters, second.counters, "{}", spec.name);
        assert!(first.counters.commits > 0);
        for name in [
            "nvm_write_bytes_per_op",
            "ssd_write_bytes_per_op",
            "space_amp",
        ] {
            assert_eq!(
                first.metrics.get(name),
                second.metrics.get(name),
                "{} {name}",
                spec.name
            );
        }
    }
}

/// Every workload, untraced and traced, reports each declared metric once,
/// finite and with a unit — and nothing undeclared.
#[test]
fn every_declared_metric_is_reported_once() {
    for w in WORKLOADS {
        for traced in [false, true] {
            let args = RunArgs { traced, ..SMOKE };
            let out =
                run_workload(w.name, args).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert_eq!(out.failed, 0, "{} trace {traced}: {:?}", w.name, out.notes);
            assert!(out.attempted > 0);
            let names = declared(traced);
            out.metrics
                .check_against(names.iter().copied())
                .unwrap_or_else(|e| panic!("{} trace {traced}: {e}", w.name));
            let line = json_line(true, out.attempted, out.failed, &out.metrics);
            for name in names {
                assert!(!unit_of(name).is_empty(), "{name} has no unit");
                assert!(
                    metric_in(&line, name).is_some_and(f64::is_finite),
                    "{} {name} not in {line}",
                    w.name
                );
            }
            if !traced {
                for d in END_TO_END {
                    assert!(
                        out.metrics.get(d.name).unwrap() > 0.0,
                        "{} {} must never be 0",
                        w.name,
                        d.name
                    );
                }
            }
        }
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(run_workload("tpcc", SMOKE).is_err());
}
