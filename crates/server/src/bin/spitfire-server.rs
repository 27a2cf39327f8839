//! Standalone Spitfire server.
//!
//! ```text
//! spitfire-server --addr 127.0.0.1:7878 --tenants 2 --workers 4 \
//!     --quota 1:5000 --weight 0:4 --allow-remote-shutdown --max-secs 60
//! ```
//!
//! `--workers N` bounds the threads executing database work at once: the
//! worker pool plus any connection readers running a request inline.
//! `--quota T:OPS` caps tenant `T` at `OPS` admitted ops/s; `--weight T:W`
//! sets its fair-share weight. Both repeat. The process exits when a
//! SHUTDOWN frame arrives (with `--allow-remote-shutdown`) or after
//! `--max-secs`; its last line reports the newest snapshot generation and
//! the live log bytes (`snapshot_generation N wal_bytes B`), which show
//! that maintenance kept checkpointing under load.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spitfire_obs::Source;
use spitfire_server::{Server, ServerConfig, TenantConfig};

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut n_tenants = 1usize;
    let mut quotas: Vec<(usize, f64)> = Vec::new();
    let mut weights: Vec<(usize, u32)> = Vec::new();
    let mut max_secs: Option<u64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut take = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--addr" => config.addr = take("--addr"),
            "--tenants" => n_tenants = parse(&take("--tenants"), "--tenants"),
            "--workers" => config.workers = parse(&take("--workers"), "--workers"),
            "--value-bytes" => config.value_bytes = parse(&take("--value-bytes"), "--value-bytes"),
            "--preload-keys" => {
                config.preload_keys = parse(&take("--preload-keys"), "--preload-keys")
            }
            "--dram-mb" => {
                config.dram_bytes = parse::<usize>(&take("--dram-mb"), "--dram-mb") << 20
            }
            "--nvm-mb" => config.nvm_bytes = parse::<usize>(&take("--nvm-mb"), "--nvm-mb") << 20,
            "--conn-queue" => {
                config.admission.per_conn_queue = parse(&take("--conn-queue"), "--conn-queue")
            }
            "--global-inflight" => {
                config.admission.global_inflight =
                    parse(&take("--global-inflight"), "--global-inflight")
            }
            "--no-pressure-shedding" => config.admission.pressure_shedding = false,
            "--quota" => quotas.push(parse_pair(&take("--quota"), "--quota")),
            "--weight" => weights.push(parse_pair(&take("--weight"), "--weight")),
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            "--max-secs" => max_secs = Some(parse(&take("--max-secs"), "--max-secs")),
            "--help" | "-h" => {
                println!(
                    "usage: spitfire-server [--addr A] [--tenants N] [--workers N]\n\
                     [--value-bytes N] [--preload-keys N] [--dram-mb N] [--nvm-mb N]\n\
                     [--conn-queue N] [--global-inflight N] [--no-pressure-shedding]\n\
                     [--quota T:OPS]... [--weight T:W]... [--allow-remote-shutdown]\n\
                     [--max-secs N]\n\
                     \n\
                     --workers N  threads executing database work at once, readers\n\
                     \x20            running a request inline included (default 4)"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    config.tenants = vec![TenantConfig::default(); n_tenants.max(1)];
    for (t, w) in weights {
        if t >= config.tenants.len() {
            die(&format!("--weight tenant {t} out of range"));
        }
        config.tenants[t].weight = w;
    }
    for (t, q) in quotas {
        if t >= config.tenants.len() {
            die(&format!("--quota tenant {t} out of range"));
        }
        config.tenants[t].quota_ops_per_sec = Some(q);
    }

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => die(&format!("failed to start: {e}")),
    };
    println!("spitfire-server listening on {}", server.local_addr());

    let started = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if server.stop_requested() {
            println!("shutdown requested");
            break;
        }
        if let Some(secs) = max_secs {
            if started.elapsed() >= Duration::from_secs(secs) {
                println!("max run time reached");
                break;
            }
        }
    }
    let db = Arc::clone(server.database());
    server.shutdown();
    let mut report = spitfire_obs::Report::default();
    db.report(&mut report);
    println!(
        "spitfire-server exited cleanly: snapshot_generation {} wal_bytes {}",
        report.gauges["snapshot_generation"], report.gauges["wal_bytes"]
    );
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad value for {flag}: {s}")))
}

fn parse_pair<T: std::str::FromStr>(s: &str, flag: &str) -> (usize, T) {
    let (a, b) = s
        .split_once(':')
        .unwrap_or_else(|| die(&format!("{flag} wants T:VALUE, got {s}")));
    (parse(a, flag), parse(b, flag))
}

fn die(msg: &str) -> ! {
    eprintln!("spitfire-server: {msg}");
    std::process::exit(2);
}
