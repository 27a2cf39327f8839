//! `server-kv`: the system as shipped, driven over loopback TCP.
//!
//! `Server::start` brings up its own buffer manager, database, worker
//! pool, pressure monitor and `Maintenance` threads; two client threads
//! each hold one connection and wait for every reply before sending the
//! next request. Each connection writes only keys of its own parity, so it
//! knows the last acknowledged value of every key it wrote.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use spitfire_server::{
    decode_reply, decode_request, encode_reply, encode_request, encode_value, read_frame,
    Admission, AdmissionConfig, Command, ErrorCode, Opcode, Reply, Request, Schedulable, Scheduler,
    Server, ServerConfig, TenantConfig,
};

use crate::counters::{put_count_metrics, Counters};
use crate::ladder::{self, LedgerInput};
use crate::ops::{Op, OpStream};
use crate::oracle::{fill_payload, Oracle};
use crate::recovery::{self, crash_and_recover};
use crate::report::put_host_metrics;
use crate::spec::EndToEnd;
use crate::stats::{best_slice, min_of, Samples};
use crate::trace::{spanned, SpanName, TraceCtx, Tracer};
use crate::{err, host, Outcome, RunArgs, ATTEMPTS, SLICES};

pub const NAME: &str = "server-kv";
const TABLE: u32 = 0;
const KEYS: u64 = 4096;
const THETA: f64 = 0.9;
const PUT_PCT: u32 = 20;
const VALUE: usize = 64;
const CONNS: usize = 2;
/// Ops per connection per segment, sized like the in-process segments.
const SEGMENT_OPS: u64 = 16_000;
/// Unmeasured ops per connection before the first measured one.
const WARMUP_OPS: u64 = 16_000;

/// A shed or conflicting request is resent after this long, times the attempt.
const BACKOFF: Duration = Duration::from_millis(1);

/// One closed-loop client connection and everything it has observed.
struct Conn {
    socket: TcpStream,
    parity: u32,
    stream: OpStream,
    oracle: Oracle,
    value: Vec<u8>,
    next_op: u64,
    request_id: u64,
    committed: u64,
    failed: u64,
    retries: u64,
    sheds: u64,
    errors: Vec<String>,
    /// Latency of every measured untraced op, in op order.
    lat_ns: Vec<u32>,
    slices: Vec<Slice>,
    tracer: Option<Tracer>,
}

/// One measured stretch of one connection's ops. All connections run
/// their slices in step, so that the k-th slices of all of them make up
/// one stretch of the system's time.
#[derive(Debug, Clone)]
struct Slice {
    ops: u64,
    secs: f64,
    traced: bool,
    /// Where its ops' latencies sit in [`Conn::lat_ns`] (empty when traced).
    lat: std::ops::Range<usize>,
}

impl Conn {
    fn open(
        addr: std::net::SocketAddr,
        parity: u32,
        stream: OpStream,
        epoch: Instant,
    ) -> Result<Self, String> {
        let socket = TcpStream::connect(addr).map_err(err("connect"))?;
        socket.set_nodelay(true).map_err(err("nodelay"))?;
        Ok(Conn {
            socket,
            parity,
            stream,
            oracle: Oracle::new(KEYS),
            value: vec![0u8; VALUE],
            next_op: 0,
            request_id: 0,
            committed: 0,
            failed: 0,
            retries: 0,
            sheds: 0,
            errors: Vec::new(),
            lat_ns: Vec::new(),
            slices: Vec::new(),
            tracer: Some(Tracer::new(epoch, 0)),
        })
    }

    fn fail(&mut self, what: String) -> bool {
        if self.errors.len() < 5 {
            self.errors
                .push(format!("conn {} op {}: {what}", self.parity, self.next_op));
        }
        false
    }

    /// Send one request and wait for its reply; resend on a retryable error.
    fn request(&mut self, op: Op, ctx: &mut Option<TraceCtx<'_>>) -> bool {
        let key = op.key as u64;
        for attempt in 0..ATTEMPTS {
            self.request_id += 1;
            let cmd = if op.update {
                fill_payload(&mut self.value, op.key, op.byte);
                Command::Put {
                    key,
                    value: self.value.clone(),
                }
            } else {
                Command::Get { key }
            };
            let request = Request {
                tenant: TABLE,
                request_id: self.request_id,
                cmd,
            };
            let frame = spanned(ctx, SpanName::ServerEncode, || encode_request(&request));
            let raw = spanned(ctx, SpanName::ServerRtt, || {
                self.socket.write_all(&frame)?;
                read_frame(&mut self.socket)
            });
            let raw = match raw {
                Ok(Some(raw)) => raw,
                Ok(None) => return self.fail("server closed the connection".to_string()),
                Err(e) => return self.fail(format!("socket: {e}")),
            };
            let reply = match spanned(ctx, SpanName::ServerDecode, || decode_reply(&raw)) {
                Ok(r) if r.request_id == self.request_id => r.reply,
                Ok(r) => {
                    return self.fail(format!(
                        "reply to request {} instead of {}",
                        r.request_id, self.request_id
                    ))
                }
                Err(e) => return self.fail(format!("bad reply frame: {e:?}")),
            };
            match reply {
                Reply::Value(v) if !op.update => {
                    let own = op.key % 2 == self.parity;
                    if !self.oracle.check_value(op.key, &v, own) {
                        return false;
                    }
                    self.committed += 1;
                    return true;
                }
                Reply::Ok if op.update => {
                    self.oracle.acknowledge(op.key, op.byte);
                    self.committed += 1;
                    return true;
                }
                Reply::Error {
                    code,
                    retryable: true,
                    ..
                } => {
                    self.retries += 1;
                    if matches!(code, ErrorCode::Overload | ErrorCode::RateLimited) {
                        self.sheds += 1;
                    }
                    std::thread::sleep(BACKOFF * (attempt + 1));
                }
                other => return self.fail(format!("unexpected reply {other:?}")),
            }
        }
        self.fail(format!("gave up after {ATTEMPTS} attempts"))
    }

    /// The next `n` ops of this connection's stream, each timed from the
    /// first send to the reply that settled it.
    fn run_ops(&mut self, n: u64, measured: bool, traced: bool) {
        let start = Instant::now();
        let first = self.lat_ns.len();
        for _ in 0..n {
            let op = self.stream.at(self.next_op);
            let ok = if traced {
                // Out of `self` while `request` borrows it.
                let mut tracer = self
                    .tracer
                    .take()
                    .expect("tracer is put back after every op");
                let op_span = tracer.begin(SpanName::Op, None, self.next_op);
                let mut ctx = Some(TraceCtx {
                    tracer: &mut tracer,
                    op_span,
                    op: self.next_op,
                });
                let ok = self.request(op, &mut ctx);
                tracer.end(op_span);
                self.tracer = Some(tracer);
                ok
            } else {
                let t = Instant::now();
                let ok = self.request(op, &mut None);
                if measured {
                    self.lat_ns
                        .push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                }
                ok
            };
            self.failed += !ok as u64;
            self.next_op += 1;
        }
        if measured {
            self.slices.push(Slice {
                ops: n,
                secs: start.elapsed().as_secs_f64(),
                traced,
                lat: first..self.lat_ns.len(),
            });
        }
    }
}

/// Run `f` on every connection at once, one thread each, released together.
fn on_all(conns: &mut [Conn], f: impl Fn(&mut Conn) + Sync) {
    let barrier = Barrier::new(conns.len());
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (barrier, f) = (&barrier, &f);
            s.spawn(move || {
                barrier.wait();
                f(conn);
            });
        }
    });
}

/// Start the server, connect, and warm up.
fn set_up(
    args: &RunArgs,
    warmup_ops: u64,
    total_ops: u64,
    epoch: Instant,
) -> Result<(Server, Vec<Conn>), String> {
    let server = Server::start(ServerConfig {
        preload_keys: KEYS,
        ..ServerConfig::default()
    })
    .map_err(err("server start"))?;
    let mut conns = Vec::new();
    for parity in 0..CONNS as u32 {
        let stream = stream_for(args, parity, total_ops);
        conns.push(Conn::open(server.local_addr(), parity, stream, epoch)?);
    }
    on_all(&mut conns, |c| c.run_ops(warmup_ops, false, false));
    for c in &mut conns {
        if c.failed > 0 {
            return Err(format!("{} warm-up ops failed: {:?}", c.failed, c.errors));
        }
        c.committed = 0;
        c.retries = 0;
        c.sheds = 0;
    }
    Ok((server, conns))
}

/// The op stream connection `parity` is offered.
pub fn stream_for(args: &RunArgs, parity: u32, total_ops: u64) -> OpStream {
    let seed = args.seed ^ (parity as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    OpStream::generate(seed, KEYS, THETA, PUT_PCT, Some(parity), total_ops)
}

/// Check a tuple of the server's table: `[len u16][value][pad]`. A
/// tombstone or a length beyond the tuple is a wrong value.
fn check_tuple(oracle: &mut Oracle, key: u32, tuple: &[u8]) -> bool {
    let len = u16::from_le_bytes([tuple[0], tuple[1]]) as usize;
    oracle.check_value(key, tuple.get(2..2 + len).unwrap_or(&[0xFF]), true)
}

struct Idle;

impl Schedulable for Idle {
    fn tenant(&self) -> u32 {
        0
    }
}

/// The server's own layers, each timed alone: the codec over one GET and
/// its reply, one admission decision, one scheduler hand-off.
fn server_rungs() -> (f64, f64, f64) {
    use std::hint::black_box;
    let request = Request {
        tenant: 0,
        request_id: 7,
        cmd: Command::Get { key: 42 },
    };
    let reply = Reply::Value(vec![7u8; VALUE]);
    let codec = ladder::per_call_ns(200, 32, |_| {
        let frame = encode_request(black_box(&request));
        black_box(decode_request(&frame).ok());
        let frame = encode_reply(Opcode::Get, 0, 7, black_box(&reply));
        black_box(decode_reply(&frame).ok());
    });
    let admission = Admission::new(AdmissionConfig::default(), &[TenantConfig::default()]);
    let admit = ladder::per_call_ns(200, 128, |_| {
        black_box(admission.admit(0, false, 0));
        admission.release();
    });
    let scheduler: Scheduler<Idle> = Scheduler::new(vec![1]);
    let item = Arc::new(Idle);
    let sched = ladder::per_call_ns(200, 128, |_| {
        scheduler.enqueue(Arc::clone(&item));
        black_box(scheduler.next());
    });
    (codec, admit, sched)
}

/// Run the workload.
pub fn run(args: RunArgs) -> Result<Outcome, String> {
    let segment_ops = args.scaled(SEGMENT_OPS, 8);
    let warmup_ops = args.scaled(WARMUP_OPS, 8);
    let segments = args.segments();
    let total_ops = warmup_ops + segments * segment_ops;
    let mut out = Outcome {
        stream_hash: stream_for(&args, 0, total_ops).hash(),
        ..Outcome::default()
    };
    let epoch = Instant::now();

    let mut setup_secs = Vec::new();
    let mut stack: Option<(Server, Vec<Conn>)> = None;
    for _ in 0..args.setups() {
        if let Some((server, conns)) = stack.take() {
            drop(conns);
            server.shutdown();
        }
        let t = Instant::now();
        stack = Some(set_up(&args, warmup_ops, total_ops, epoch)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let (server, mut conns) = stack.expect("at least one set-up ran");

    // The measured phase: every connection runs the same number of
    // segments; plain and traced ones alternate in a traced run.
    let ctl_before = host::control_ns_per_iter_if(args.traced);
    let before = Counters::read(server.database());
    let traced = args.traced;
    let slice_ops = (segment_ops / SLICES).max(1);
    let step = Barrier::new(CONNS);
    on_all(&mut conns, |c| {
        for i in 0..segments * SLICES {
            c.run_ops(slice_ops, true, traced && (i / SLICES) % 2 == 1);
            step.wait();
        }
    });
    let total = Counters::read(server.database());
    let delta = total.since(&before);
    let ctl_after = host::control_ns_per_iter_if(args.traced);
    let sheds_server = server.admission().tenant(TABLE).shed_total();
    let protocol_errors = server.protocol_errors();
    let db = Arc::clone(server.database());
    let bm = db.buffer_manager();
    let stored = bm.page_count() * bm.page_size() as u64 + db.wal().log_bytes();
    let space_amp = stored as f64 / (KEYS * VALUE as u64) as f64;

    // Time-based results are best-of, as in the in-process workloads: a
    // step is the k-th slice of every connection, its time the longest of
    // them, and the fastest step is the one the host disturbed least.
    let steps = segments * SLICES;
    let best_rate = |want_traced: bool| -> f64 {
        let rates = (0..steps as usize)
            .filter(|&k| conns[0].slices[k].traced == want_traced)
            .map(|k| {
                let ops: u64 = conns.iter().map(|c| c.slices[k].ops).sum();
                let secs = conns.iter().map(|c| c.slices[k].secs).fold(0.0, f64::max);
                secs / ops as f64
            });
        1.0 / min_of(rates)
    };
    let (plain_rate, traced_rate) = (best_rate(false), best_rate(true));
    let mut step_lat: Vec<Samples> = (0..steps as usize)
        .filter(|&k| !conns[0].slices[k].traced)
        .map(|k| {
            Samples::from_ns(
                conns
                    .iter()
                    .flat_map(|c| c.lat_ns[c.slices[k].lat.clone()].iter().copied()),
            )
        })
        .collect();
    let best_lat = best_slice(&mut step_lat);
    let mut lat = Samples::from_ns(conns.iter().flat_map(|c| c.lat_ns.iter().copied()));

    // Merge what the connections saw, then stop the server.
    let mut oracle = Oracle::new(KEYS);
    let mut tracer = Tracer::new(epoch, 0);
    let (mut committed, mut failed, mut retries, mut sheds) = (0, 0, 0, 0);
    let mut errors = Vec::new();
    for c in conns {
        oracle.adopt(&c.oracle, c.parity);
        tracer.absorb(c.tracer.expect("tracer is put back after every op"));
        committed += c.committed;
        failed += c.failed;
        retries += c.retries;
        sheds += c.sheds;
        errors.extend(c.errors);
    }
    server.shutdown();
    if committed == 0 {
        return Err(format!("no measured op committed: {errors:?}"));
    }

    // The ladder, on the database as the server left it.
    let rungs = if args.traced {
        let make_tuple = |key, byte| {
            let mut value = vec![0u8; VALUE];
            fill_payload(&mut value, key, byte);
            encode_value(&value, 2 + VALUE)
        };
        let stream = stream_for(&args, 0, total_ops);
        Some(ladder::climb(
            &db,
            TABLE,
            KEYS,
            &stream,
            &make_tuple,
            Some(&mut oracle),
        )?)
    } else {
        None
    };

    // Crash and recover the server's database: every acknowledged PUT
    // must be there afterwards.
    let table = recovery::Table {
        id: TABLE,
        tuple_bytes: 2 + VALUE,
        check: &check_tuple,
    };
    let recovered = crash_and_recover(&db, &table, &mut oracle, args.recoveries())?;
    let recovery = &recovered.stats;

    let m = &mut out.metrics;
    let ops = committed as f64;
    match rungs {
        None => EndToEnd {
            setup_secs: &setup_secs,
            ops_per_s: plain_rate,
            lat_p50_ns: best_lat.0,
            lifetime: &total,
            lifetime_ops: KEYS + CONNS as u64 * warmup_ops + committed,
            space_amp,
            recover_ms: &recovered.ms,
        }
        .put(m),
        Some(rungs) => {
            put_count_metrics(m, &delta, ops);
            for name in [
                // Maintenance runs on the server's own threads, and
                // nothing vacuums or checkpoints.
                "core.tick_share",
                "txn.vacuum_ms",
                "txn.vacuum_freed_per_call",
                "txn.checkpoint_ms",
                "txn.maint_share",
                "snapshot.generations",
                "snapshot.pages_per_ckpt",
                "snapshot.write_bytes_per_ckpt",
                // The server makes these calls, not the harness;
                // `txn.session_*` carry their cost.
                "txn.begin_ns",
                "txn.read_ns",
                "txn.update_ns",
                "txn.commit_ro_ns",
                "txn.commit_rw_ns",
            ] {
                m.put(name, 0.0);
            }
            m.put("txn.recover.redone", recovery.redone as f64);
            m.put("txn.recover.index_entries", recovery.index_entries as f64);
            m.put("snapshot.recover_pages", recovery.snapshot_pages as f64);
            ladder::put_rung_metrics(m, &rungs);
            let (codec, admit, sched) = server_rungs();
            let put = PUT_PCT as f64 / 100.0;
            let session = (1.0 - put) * rungs.session_get_ns + put * rungs.session_put_ns;
            m.put("server.codec_ns", codec);
            m.put("server.admit_ns", admit);
            m.put("server.sched_ns", sched);
            m.put("server.self_us", (lat.p50() - session) / 1e3);
            m.put("server.sheds_per_op", sheds_server as f64 / ops);
            m.put("server.retries_per_op", retries as f64 / ops);
            m.put("server.protocol_errors", protocol_errors as f64);
            m.put(
                "trace.overhead_pct",
                100.0 * (plain_rate / traced_rate - 1.0),
            );
            put_host_metrics(m, best_lat.1, &mut lat, (ctl_before, ctl_after));

            let traced_ops = tracer.ops() as f64;
            let span_mean = |name| tracer.total_ns(name) / traced_ops;
            let codec_spans = span_mean(SpanName::ServerEncode) + span_mean(SpanName::ServerDecode);
            ladder::put_ledger(
                m,
                &rungs,
                &LedgerInput {
                    harness_ns: tracer.op_self_times().mean() + codec_spans,
                    server_ns: span_mean(SpanName::ServerRtt) - session,
                    upper_ns: session,
                    update_share: put,
                    lat_mean_ns: lat.mean(),
                    // The server's maintenance threads cannot be told
                    // apart from its workers here: all traffic counts.
                    device_ns: delta.devices.busy_ns_total() / ops,
                    delta: &delta,
                    ops,
                },
            );
            out.notes.push(tracer.write_for(NAME)?);
        }
    }

    out.attempted = CONNS as u64 * segments * SLICES * slice_ops + recovered.read_back;
    out.failed = failed + recovered.lost;
    out.counters = delta;
    out.notes.push(format!(
        "ops: {committed} measured on {CONNS} connections in {} slices of {slice_ops} each, {} warm-up, {retries} retries of which {sheds} after a shed",
        segments * SLICES,
        CONNS as u64 * warmup_ops
    ));
    out.notes.push(format!(
        "latency: {} samples; best of {} steps: p50 {:.3} us, p99 {:.3} us",
        lat.len(),
        step_lat.len(),
        best_lat.0 / 1e3,
        best_lat.1 / 1e3
    ));
    out.notes.push(format!(
        "recovery: {} cycles, the last redid {} records; {} lost acknowledged writes",
        recovered.ms.len(),
        recovery.redone,
        recovered.lost
    ));
    errors.extend(recovered.errors.iter().cloned());
    out.notes
        .extend(errors.iter().map(|e| format!("error: {e}")));
    out.notes
        .extend(oracle.samples.iter().map(|e| format!("wrong read: {e}")));
    Ok(out)
}
