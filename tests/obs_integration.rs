//! Full-stack observability integration: enable the recorder, drive real
//! transactions through the three-tier stack, and assert that fetch / WAL /
//! commit latencies come out of *both* exporters with sane quantiles, and
//! that buffer + device counters route into the same report. Also pins
//! the exported schema: every counter and gauge name of a full stack
//! (manager + database + server), identical across STATS, JSON and
//! Prometheus, each appearing once.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use spitfire_bench::{database, three_tier, MB};
use spitfire_core::MigrationPolicy;
use spitfire_server::{
    decode_reply, encode_request, read_frame, Command, Reply, Request, Server, ServerConfig,
};

/// The source list, the recorder switch and the sampler are process-wide;
/// run one test at a time so a later registration never answers for an
/// earlier test's stack.
fn serial() -> MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    M.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn report_exports_fetch_wal_commit_quantiles() {
    let _serial = serial();
    let bm = three_tier(2 * MB, 8 * MB, MigrationPolicy::lazy());
    let db = Arc::new(database(Arc::clone(&bm)));

    spitfire_obs::set_enabled(true);
    // Time every op (no sampling) so the small fixed op counts below are
    // deterministic lower bounds on histogram counts.
    spitfire_obs::set_sample_interval(1);
    spitfire_obs::registry().reset_histograms();
    spitfire_obs::register_source(&bm);
    spitfire_obs::register_source(&db);
    spitfire_obs::start_sampler(Duration::from_millis(20));

    db.create_table(1, 128).unwrap();
    for k in 0..400u64 {
        let mut t = db.begin();
        db.insert(&mut t, 1, k, &[7u8; 128]).unwrap();
        db.commit(&mut t).unwrap();
    }
    for k in 0..400u64 {
        let t = db.begin();
        db.read(&t, 1, k).unwrap();
    }

    std::thread::sleep(Duration::from_millis(60));
    spitfire_obs::stop_sampler();

    let report = spitfire_obs::Report::capture();
    spitfire_obs::set_enabled(false);
    spitfire_obs::set_sample_interval(spitfire_obs::DEFAULT_SAMPLE_INTERVAL);

    // Histograms: the three acceptance operations all recorded, with
    // internally consistent quantiles.
    for op in ["fetch_dram_hit", "wal_append", "txn_commit"] {
        let h = report
            .histograms
            .iter()
            .find(|h| h.name == op)
            .unwrap_or_else(|| panic!("histogram {op} missing"));
        assert!(h.snapshot.count > 0, "{op} recorded nothing");
        let p50 = h.snapshot.quantile(0.5).unwrap();
        let p99 = h.snapshot.quantile(0.99).unwrap();
        assert!(p50 <= p99, "{op}: p50 {p50} > p99 {p99}");
    }

    // Counters: buffer metrics and txn stats routed into the report.
    let counter = |name: &str| {
        *report
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert!(counter("txn_commits") >= 400);
    assert!(counter("dram_hits") > 0);
    assert!(counter("nvm_bytes_written") > 0 || counter("nvm_write_ops") > 0);

    // Gauges: registered sources are alive and sampled, counters included
    // (the NVM write volume over time is what Fig. 8 plots).
    assert!(
        report.gauges.contains_key("dram_occupied_frames"),
        "gauges: {:?}",
        report.gauges.keys().collect::<Vec<_>>()
    );
    let last_tick = report
        .series
        .last()
        .expect("sampler produced no time series points");
    for name in ["dram_occupied_frames", "nvm_bytes_written", "wal_bytes"] {
        assert!(
            last_tick.values.iter().any(|(n, _)| n == name),
            "series tick lacks {name}"
        );
    }

    // Both exporters surface the quantiles.
    let prom = report.to_prometheus();
    for op in ["fetch_dram_hit", "wal_append", "txn_commit"] {
        assert!(
            prom.contains(&format!(
                "spitfire_op_latency_seconds{{op=\"{op}\",quantile=\"0.5\"}}"
            )),
            "prometheus missing p50 for {op}:\n{prom}"
        );
        assert!(
            prom.contains(&format!(
                "spitfire_op_latency_seconds{{op=\"{op}\",quantile=\"0.99\"}}"
            )),
            "prometheus missing p99 for {op}"
        );
    }
    let json = report.to_json();
    for op in ["fetch_dram_hit", "wal_append", "txn_commit"] {
        assert!(json.contains(&format!("\"{op}\"")), "json missing {op}");
    }
    assert!(json.contains("\"p50_ns\"") && json.contains("\"p99_ns\""));
}

/// Names of one flat `"section": {…}` object in a rendered report.
fn section_names(json: &str, section: &str) -> Vec<String> {
    let open = format!("\"{section}\": {{");
    let body = &json[json.find(&open).expect("section present") + open.len()..];
    body[..body.find('}').expect("section closed")]
        .split(',')
        .filter(|kv| !kv.trim().is_empty())
        .map(|kv| {
            let key = kv.split(':').next().expect("key");
            key.trim().trim_matches('"').to_string()
        })
        .collect()
}

/// Sorted counter + gauge names of a rendered report, asserting that no
/// name repeats within or across the two sections.
fn exported_names(json: &str) -> Vec<String> {
    let mut names = section_names(json, "counters");
    names.extend(section_names(json, "gauges"));
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name repeats in {names:?}");
    names.sort();
    names
}

/// Sorted scalar series names of a Prometheus exposition (histogram
/// summaries carry labels and are skipped), asserting every series —
/// labelled ones too — appears once.
fn prometheus_names(text: &str) -> Vec<String> {
    let series: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split(' ').next().expect("series"))
        .collect();
    let unique: BTreeSet<&&str> = series.iter().collect();
    assert_eq!(unique.len(), series.len(), "duplicate series in:\n{text}");
    let mut names: Vec<String> = series
        .iter()
        .filter(|s| !s.contains('{'))
        .map(|s| s.trim_start_matches("spitfire_").to_string())
        .collect();
    names.sort();
    names
}

/// Regression: at the parent commit `bm.register…(); db.register…()`
/// (what the test above does) put every manager gauge into the report
/// twice, seven names were both a counter and a gauge, and `wal_bytes`
/// doubled even with a single registration.
#[test]
fn repeated_registration_reports_each_name_once() {
    let _serial = serial();
    let bm = three_tier(2 * MB, 8 * MB, MigrationPolicy::lazy());
    let db = Arc::new(database(Arc::clone(&bm)));
    for _ in 0..2 {
        spitfire_obs::register_source(&bm);
        spitfire_obs::register_source(&db);
    }
    let pid = bm.allocate_page().unwrap();
    drop(bm.fetch_write(pid).unwrap());

    let report = spitfire_obs::Report::capture();
    let both: Vec<&String> = report
        .counters
        .keys()
        .filter(|name| report.gauges.contains_key(*name))
        .collect();
    assert!(both.is_empty(), "both a counter and a gauge: {both:?}");
    let json_names = exported_names(&report.to_json());
    assert_eq!(json_names, prometheus_names(&report.to_prometheus()));
    for name in ["wal_bytes", "dram_dirty_pages", "backpressure_fallbacks"] {
        assert_eq!(
            json_names.iter().filter(|n| *n == name).count(),
            1,
            "{name} must be exported exactly once"
        );
    }

    // Sources die with their owners: nothing of this stack is left behind.
    drop((bm, db));
    assert!(!spitfire_obs::Report::capture()
        .counters
        .contains_key("txn_commits"));
}

/// Every counter and gauge a full stack exports, sorted. Adding, renaming
/// or dropping a metric changes this list — deliberately, in one place.
const FULL_STACK_SCHEMA: &[&str] = &[
    "aborted_slots_retired",
    "active_txns",
    "admission_queue_len",
    "backpressure_fallbacks",
    "buffer_hit_ratio",
    "device_charge_overhead_ns",
    "discards",
    "dram_bytes_flushed",
    "dram_bytes_read",
    "dram_bytes_written",
    "dram_dirty_pages",
    "dram_fences",
    "dram_frames_total",
    "dram_free_frames",
    "dram_hits",
    "dram_low_watermark_frames",
    "dram_occupied_frames",
    "dram_read_ops",
    "dram_write_ops",
    "evictions_dram",
    "evictions_nvm",
    "fetch_fallbacks",
    "fetch_fast",
    "hint_discards",
    "inclusivity",
    "index_restarts",
    "io_fatal",
    "io_retries",
    "last_checkpoint_ms",
    "last_checkpoint_pages",
    "maint_contended",
    "maint_cycles",
    "maint_evictions",
    "maint_writebacks",
    "migrations_aborted",
    "migrations_dram_to_nvm",
    "migrations_dram_to_ssd",
    "migrations_nvm_to_dram",
    "migrations_nvm_to_ssd",
    "migrations_ssd_to_dram",
    "migrations_ssd_to_nvm",
    "nvm_bytes_flushed",
    "nvm_bytes_read",
    "nvm_bytes_written",
    "nvm_dirty_pages",
    "nvm_fences",
    "nvm_frames_total",
    "nvm_free_frames",
    "nvm_hits",
    "nvm_home_drops",
    "nvm_low_watermark_frames",
    "nvm_occupied_frames",
    "nvm_read_ops",
    "nvm_write_ops",
    "pin_restarts",
    "policy_dr",
    "policy_dw",
    "policy_nr",
    "policy_nw",
    "server_accepted",
    "server_conns",
    "server_inflight",
    "server_inline_ops",
    "server_protocol_errors",
    "server_queued_ops",
    "server_under_pressure",
    "shadow_abort_rate_evict",
    "shadow_abort_rate_flush",
    "shadow_abort_rate_promote",
    "shadow_aborts_evict",
    "shadow_aborts_flush",
    "shadow_aborts_promote",
    "shadow_commits_evict",
    "shadow_commits_flush",
    "shadow_commits_promote",
    "snapshot_generation",
    "snapshot_store_free_blocks",
    "snapshot_store_used_bytes",
    "ssd_bytes_flushed",
    "ssd_bytes_read",
    "ssd_bytes_written",
    "ssd_fences",
    "ssd_fetches",
    "ssd_read_ops",
    "ssd_write_ops",
    "tenant0_admitted",
    "tenant0_err_ops",
    "tenant0_ok_ops",
    "tenant0_shed_pressure",
    "tenant0_shed_queue",
    "tenant0_shed_quota",
    "tenant0_weight",
    "txn_aborts",
    "txn_commits",
    "wal_bytes",
    "wal_file_pages",
];

#[test]
fn full_stack_schema_is_pinned_and_identical_across_exporters() {
    let _serial = serial();
    let server = Server::start(ServerConfig::default()).unwrap();

    // STATS over the wire, as a client sees it.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let frame = encode_request(&Request {
        tenant: 0,
        request_id: 1,
        cmd: Command::Stats,
    });
    stream.write_all(&frame).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("reply frame");
    let Reply::Stats(stats) = decode_reply(&reply).unwrap().reply else {
        panic!("expected a STATS reply");
    };

    let stats_names = exported_names(&stats);
    let golden: Vec<String> = FULL_STACK_SCHEMA.iter().map(|s| s.to_string()).collect();
    assert_eq!(stats_names, golden, "exported schema changed");

    let report = server.report();
    assert_eq!(exported_names(&report.to_json()), golden);
    assert_eq!(prometheus_names(&report.to_prometheus()), golden);

    // The process-wide capture sees the same stack through its registered
    // sources.
    let captured = spitfire_obs::Report::capture();
    for name in &golden {
        assert!(
            captured.counters.contains_key(name) || captured.gauges.contains_key(name),
            "capture() lacks {name}"
        );
    }
}
