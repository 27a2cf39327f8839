//! Closed-loop load generator for `spitfire-server`.
//!
//! Two modes:
//!
//! * **External** (`--addr HOST:PORT`): open `--conns` connections split
//!   round-robin across `--tenants`, run a GET/PUT mix for `--secs`, and
//!   print a JSON summary (per-tenant throughput and latency quantiles,
//!   shed/retry counts). Exits non-zero on any protocol error, so CI can
//!   use it as a smoke check. `--shutdown` sends a SHUTDOWN frame at the
//!   end.
//! * **Bench** (`--bench`): runs the multi-tenant fairness experiment
//!   against in-process servers on loopback and writes
//!   `BENCH_server.json`: a solo cold-tenant baseline, then a 10:1
//!   hot/cold connection skew with the hot tenant's quota ON (cold p99
//!   must stay within 2x of solo) and OFF (unbounded, recorded for
//!   contrast). The full run drives ≥1k concurrent connections; set
//!   `SPITFIRE_QUICK=1` for a scaled-down smoke version.
//!
//! Retryable errors (sheds, MVTO conflicts) are retried with a short
//! backoff and counted; they are expected under overload and never fail
//! the run.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spitfire_obs::json::{self, Json};
use spitfire_obs::HistogramSet;
use spitfire_server::{
    decode_reply, encode_request, read_frame, AdmissionConfig, Command, Reply, Request, Server,
    ServerConfig, TenantConfig,
};
use spitfire_wkld::Zipf;

/// Per-tenant aggregate counters, shared across that tenant's client
/// threads.
#[derive(Default)]
struct TenantTotals {
    ops: AtomicU64,
    errors: AtomicU64,
    sheds: AtomicU64,
    retries: AtomicU64,
    protocol_errors: AtomicU64,
}

struct TenantResult {
    tenant: u32,
    conns: usize,
    ops: u64,
    ops_per_sec: f64,
    errors: u64,
    sheds: u64,
    retries: u64,
    protocol_errors: u64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

struct RunSpec {
    addr: std::net::SocketAddr,
    /// Connections per tenant, e.g. `[(0, 640), (1, 64)]`.
    conns: Vec<(u32, usize)>,
    secs: f64,
    keys: u64,
    theta: f64,
    read_pct: u32,
    value_bytes: usize,
}

/// One closed-loop client connection.
fn client_loop(
    spec: &RunSpec,
    tenant: u32,
    seed: u64,
    stop: &AtomicBool,
    totals: &TenantTotals,
    hist: &HistogramSet,
) {
    // Connect with retry: a thousand simultaneous connects can overflow
    // the listen backlog briefly.
    let mut stream = None;
    for attempt in 0..50 {
        match TcpStream::connect(spec.addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) if attempt + 1 < 50 => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                eprintln!("loadgen: connect failed: {e}");
                // relaxed: load-report statistic.
                totals.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    let mut stream = stream.unwrap();
    let _ = stream.set_nodelay(true);
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = Zipf::new(spec.keys, spec.theta);
    let value = vec![0xABu8; spec.value_bytes.min(64)];
    let mut request_id = 0u64;

    // relaxed: the stop flag is a shutdown hint; workers may run one extra iteration.
    while !stop.load(Ordering::Relaxed) {
        let key = zipf.sample(&mut rng);
        let read = rng.gen_range(0..100u32) < spec.read_pct;
        let t0 = Instant::now();
        // Retry retryable rejections (sheds, conflicts) a few times. The
        // backoff is deliberately coarse: a shed client should get off the
        // CPU, not poll the admission layer — with ~1k quota-limited
        // connections, aggressive retry turns into a wakeup storm that
        // starves everyone.
        let mut backoff = Duration::from_millis(25);
        let mut done = false;
        for _attempt in 0..4 {
            let cmd = if read {
                Command::Get { key }
            } else {
                Command::Put {
                    key,
                    value: value.clone(),
                }
            };
            request_id += 1;
            let frame = encode_request(&Request {
                tenant,
                request_id,
                cmd,
            });
            if stream.write_all(&frame).is_err() {
                return;
            }
            let reply = match read_frame(&mut stream) {
                Ok(Some(raw)) => match decode_reply(&raw) {
                    Ok(f) => f.reply,
                    Err(_) => {
                        // relaxed: load-report statistic.
                        totals.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                },
                // Server closed (shutdown) or I/O error: stop quietly.
                Ok(None) | Err(_) => return,
            };
            match reply {
                Reply::Error {
                    retryable: true,
                    code,
                    ..
                } => {
                    // relaxed: load-report statistics; the stop re-check is the same shutdown hint as the loop condition.
                    totals.retries.fetch_add(1, Ordering::Relaxed);
                    if matches!(
                        code,
                        spitfire_server::ErrorCode::Overload
                            | spitfire_server::ErrorCode::RateLimited
                    ) {
                        totals.sheds.fetch_add(1, Ordering::Relaxed);
                    }
                    // relaxed: shutdown hint, as the loop condition.
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(backoff);
                    backoff *= 4;
                }
                Reply::Error { .. } => {
                    // relaxed: load-report statistic.
                    totals.errors.fetch_add(1, Ordering::Relaxed);
                    done = true;
                    break;
                }
                _ => {
                    done = true;
                    break;
                }
            }
        }
        if done {
            // relaxed: load-report statistic.
            totals.ops.fetch_add(1, Ordering::Relaxed);
            hist.record(t0.elapsed().as_nanos() as u64);
        } else {
            // Every retry was shed: the tenant is over quota or the server
            // is overloaded. Surface the error and idle before trying
            // again, like a well-behaved client would.
            std::thread::sleep(Duration::from_millis(500));
        }
    }
}

/// Run one load phase to completion and aggregate per-tenant results.
fn run_phase(spec: &RunSpec) -> Vec<TenantResult> {
    let n_tenants = spec.conns.iter().map(|(t, _)| *t + 1).max().unwrap_or(1) as usize;
    let totals: Vec<Arc<TenantTotals>> = (0..n_tenants)
        .map(|_| Arc::new(TenantTotals::default()))
        .collect();
    let hists: Vec<Arc<HistogramSet>> = (0..n_tenants)
        .map(|_| Arc::new(HistogramSet::new()))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    let mut seed = 0x5EED_0001u64;
    for &(tenant, conns) in &spec.conns {
        for _ in 0..conns {
            seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let spec2 = RunSpec {
                addr: spec.addr,
                conns: Vec::new(),
                ..*spec
            };
            let stop = Arc::clone(&stop);
            let totals = Arc::clone(&totals[tenant as usize]);
            let hist = Arc::clone(&hists[tenant as usize]);
            handles.push(
                std::thread::Builder::new()
                    .stack_size(128 * 1024)
                    .spawn(move || client_loop(&spec2, tenant, seed, &stop, &totals, &hist))
                    .expect("spawn client thread"),
            );
        }
    }
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(spec.secs));
    // relaxed: shutdown hint (see the worker loop).
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let elapsed = t0.elapsed().as_secs_f64();

    spec.conns
        .iter()
        .map(|&(tenant, conns)| {
            let t = &totals[tenant as usize];
            let snap = hists[tenant as usize].snapshot();
            // relaxed: final report reads after all workers joined; the join is the synchronization.
            let ops = t.ops.load(Ordering::Relaxed);
            TenantResult {
                tenant,
                conns,
                ops,
                ops_per_sec: ops as f64 / elapsed,
                // relaxed: joined-worker reads, as above.
                errors: t.errors.load(Ordering::Relaxed),
                sheds: t.sheds.load(Ordering::Relaxed),
                retries: t.retries.load(Ordering::Relaxed),
                protocol_errors: t.protocol_errors.load(Ordering::Relaxed),
                p50_ns: snap.quantile(0.5).unwrap_or(0),
                p99_ns: snap.quantile(0.99).unwrap_or(0),
                p999_ns: snap.quantile(0.999).unwrap_or(0),
            }
        })
        .collect()
}

fn tenant_json(r: &TenantResult) -> Json {
    json::object([
        ("tenant", Json::from(r.tenant)),
        ("conns", r.conns.into()),
        ("ops", r.ops.into()),
        ("ops_per_sec", json::fixed(r.ops_per_sec, 0)),
        ("errors", r.errors.into()),
        ("sheds", r.sheds.into()),
        ("retries", r.retries.into()),
        ("protocol_errors", r.protocol_errors.into()),
        ("p50_ns", r.p50_ns.into()),
        ("p99_ns", r.p99_ns.into()),
        ("p999_ns", r.p999_ns.into()),
    ])
}

/// One bench phase: its name, the server-side shed count where one was
/// read, and every tenant's result.
fn phase_json(name: &str, results: &[TenantResult], server_sheds: Option<u64>) -> Json {
    let mut fields = vec![("phase", Json::from(name))];
    if let Some(sheds) = server_sheds {
        fields.push(("server_sheds", sheds.into()));
    }
    fields.push(("tenants", json::array(results.iter().map(tenant_json))));
    json::object(fields)
}

fn quick() -> bool {
    std::env::var_os("SPITFIRE_QUICK").is_some()
}

/// The embedded fairness benchmark: solo baseline, skewed with quotas,
/// skewed without quotas. Writes `BENCH_server.json`.
fn bench(out: &str) {
    // 10:1 hot/cold connection skew; the full run holds ≥1k connections.
    let (hot_conns, cold_conns, secs) = if quick() {
        (40, 4, 1.0)
    } else {
        (950, 95, 5.0)
    };
    let keys = 2048u64;
    let value_bytes = 64usize;

    let server_config = |tenants: Vec<TenantConfig>| ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        page_size: 4096,
        dram_bytes: 8 << 20,
        nvm_bytes: 32 << 20,
        value_bytes,
        preload_keys: keys,
        tenants,
        admission: AdmissionConfig::default(),
        allow_remote_shutdown: false,
    };
    // Hot tenant: weight 1 and (when enabled) a quota well below what its
    // connection count can push, so the bucket sheds for real. Cold
    // tenant: weight 4, no quota.
    let hot = |quota: Option<f64>| TenantConfig {
        weight: 1,
        quota_ops_per_sec: quota,
    };
    let cold = TenantConfig {
        weight: 4,
        quota_ops_per_sec: None,
    };
    // Low enough that the hot tenant's achievable closed-loop rate exceeds
    // it even on small CI machines — the bucket must actually shed.
    let hot_quota = 2_000.0;
    let spec = |addr, conns| RunSpec {
        addr,
        conns,
        secs,
        keys,
        theta: 0.9,
        read_pct: 80,
        value_bytes,
    };

    // Phase 1 — solo: the cold tenant alone, no contention. Tenant id 1
    // in a two-tenant server so the table layout matches later phases.
    eprintln!("loadgen bench: phase solo ({cold_conns} conns, {secs}s)");
    let server = Server::start(server_config(vec![hot(None), cold.clone()])).expect("server");
    let solo = run_phase(&spec(server.local_addr(), vec![(1, cold_conns)]));
    server.shutdown();
    let solo_p99 = solo[0].p99_ns;

    // Phase 2 — skewed, quotas ON.
    eprintln!("loadgen bench: phase quotas-on ({hot_conns}+{cold_conns} conns)");
    let server =
        Server::start(server_config(vec![hot(Some(hot_quota)), cold.clone()])).expect("server");
    let quotas_on = run_phase(&spec(
        server.local_addr(),
        vec![(0, hot_conns), (1, cold_conns)],
    ));
    let server_sheds_on: u64 = server
        .admission()
        .tenants()
        .iter()
        .map(|t| t.shed_total())
        .sum();
    server.shutdown();

    // Phase 3 — skewed, quotas OFF (recorded for contrast; unbounded).
    eprintln!("loadgen bench: phase quotas-off ({hot_conns}+{cold_conns} conns)");
    let server = Server::start(server_config(vec![hot(None), cold])).expect("server");
    let quotas_off = run_phase(&spec(
        server.local_addr(),
        vec![(0, hot_conns), (1, cold_conns)],
    ));
    let server_sheds_off: u64 = server
        .admission()
        .tenants()
        .iter()
        .map(|t| t.shed_total())
        .sum();
    server.shutdown();

    let cold_on = quotas_on.iter().find(|r| r.tenant == 1).unwrap();
    let cold_off = quotas_off.iter().find(|r| r.tenant == 1).unwrap();
    let degr_on = cold_on.p99_ns as f64 / solo_p99.max(1) as f64;
    let degr_off = cold_off.p99_ns as f64 / solo_p99.max(1) as f64;

    let doc = json::object([
        (
            "config",
            json::object([
                ("hot_conns", Json::from(hot_conns)),
                ("cold_conns", cold_conns.into()),
                ("total_conns", (hot_conns + cold_conns).into()),
                ("secs", secs.into()),
                ("keys", keys.into()),
                ("theta", 0.9.into()),
                ("read_pct", 80u32.into()),
                ("hot_quota_ops_per_sec", hot_quota.into()),
                ("quick", quick().into()),
            ]),
        ),
        (
            "phases",
            json::array([
                phase_json("solo_cold_baseline", &solo, None),
                phase_json("skewed_quotas_on", &quotas_on, Some(server_sheds_on)),
                phase_json("skewed_quotas_off", &quotas_off, Some(server_sheds_off)),
            ]),
        ),
        ("cold_p99_degradation_quotas_on", json::fixed(degr_on, 3)),
        ("cold_p99_degradation_quotas_off", json::fixed(degr_off, 3)),
    ]);
    std::fs::write(out, doc.pretty()).expect("write bench json");
    eprintln!(
        "loadgen bench: cold p99 {:.2}x solo with quotas, {:.2}x without -> {out}",
        degr_on, degr_off
    );
    // The 2x isolation bound is the acceptance gate for the full run; the
    // quick smoke gets slack because its tiny solo baseline is noisy.
    let bound = if quick() { 3.0 } else { 2.0 };
    if degr_on > bound {
        eprintln!(
            "loadgen bench: WARNING cold-tenant p99 degraded more than {bound}x with quotas on"
        );
        std::process::exit(1);
    }
    if server_sheds_on == 0 {
        eprintln!("loadgen bench: WARNING no sheds under overload with quotas on");
        std::process::exit(1);
    }
}

/// External mode against a running server.
#[allow(clippy::too_many_arguments)]
fn external(addr: &str, conns: usize, tenants: usize, secs: f64, shutdown: bool) {
    let addr: std::net::SocketAddr = addr.parse().unwrap_or_else(|_| {
        eprintln!("loadgen: bad --addr {addr}");
        std::process::exit(2);
    });
    // Round-robin the connections across tenants.
    let mut per_tenant = vec![0usize; tenants.max(1)];
    for c in 0..conns {
        per_tenant[c % tenants.max(1)] += 1;
    }
    let spec = RunSpec {
        addr,
        conns: per_tenant
            .iter()
            .enumerate()
            .map(|(t, n)| (t as u32, *n))
            .collect(),
        secs,
        keys: 1024,
        theta: 0.9,
        read_pct: 80,
        value_bytes: 32,
    };
    let results = run_phase(&spec);

    let doc = json::object([("tenants", json::array(results.iter().map(tenant_json)))]);
    println!("{}", doc.compact());

    if shutdown {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let frame = encode_request(&Request {
                tenant: 0,
                request_id: u64::MAX,
                cmd: Command::Shutdown,
            });
            let _ = s.write_all(&frame);
            let _ = read_frame(&mut s);
        }
    }

    let total_ops: u64 = results.iter().map(|r| r.ops).sum();
    let proto_errs: u64 = results.iter().map(|r| r.protocol_errors).sum();
    if total_ops == 0 {
        eprintln!("loadgen: no operations completed");
        std::process::exit(1);
    }
    if proto_errs > 0 {
        eprintln!("loadgen: {proto_errs} protocol errors");
        std::process::exit(1);
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut conns = 64usize;
    let mut tenants = 1usize;
    let mut secs = 5.0f64;
    let mut shutdown = false;
    let mut bench_mode = false;
    let mut out = "BENCH_server.json".to_string();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut take = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| {
                    eprintln!("loadgen: {name} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag.as_str() {
            "--addr" => addr = Some(take("--addr")),
            "--conns" => conns = take("--conns").parse().expect("--conns"),
            "--tenants" => tenants = take("--tenants").parse().expect("--tenants"),
            "--secs" => secs = take("--secs").parse().expect("--secs"),
            "--shutdown" => shutdown = true,
            "--bench" => bench_mode = true,
            "--out" => out = take("--out"),
            "--help" | "-h" => {
                println!(
                    "usage: spitfire-loadgen --bench [--out FILE]\n\
                     \x20      spitfire-loadgen --addr HOST:PORT [--conns N] [--tenants N] \
                     [--secs S] [--shutdown]"
                );
                return;
            }
            other => {
                eprintln!("loadgen: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if bench_mode {
        bench(&out);
    } else if let Some(addr) = addr {
        external(&addr, conns, tenants, secs, shutdown);
    } else {
        eprintln!("loadgen: need --bench or --addr (see --help)");
        std::process::exit(2);
    }
}
