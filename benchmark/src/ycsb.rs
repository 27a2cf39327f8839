//! The three in-process workloads: YCSB point reads and updates through
//! `Database`, one client thread, no timer threads.
//!
//! Everything time-triggered in the tree is replaced by calls at fixed op
//! counts — `Maintenance::tick()` every [`TICK_EVERY`](crate::TICK_EVERY)
//! ops, `vacuum()` + `checkpoint()` at the end of each segment — so the
//! state at every op, and with it every counter, repeats from run to run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spitfire_core::{
    BufferManager, BufferManagerConfig, Maintenance, MigrationPolicy, PolicyConfig,
};
use spitfire_device::{PersistenceTracking, TimeScale};
use spitfire_txn::{Database, DbConfig, SnapshotConfig};

use crate::counters::{put_count_metrics, Counters, DeviceTraffic};
use crate::ladder::{self, LedgerInput};
use crate::ops::{Op, OpStream};
use crate::oracle::{fill_payload, Oracle};
use crate::recovery::{self, crash_and_recover, Recovered};
use crate::report::put_host_metrics;
use crate::spec::{EndToEnd, Metrics};
use crate::stats::{best_slice, mean, median, min_of, Samples};
use crate::trace::{spanned, SpanName, TraceCtx, Tracer};
use crate::{err, host, Outcome, RunArgs, ATTEMPTS, SLICES, TICK_EVERY};

const TABLE: u32 = 1;
const TUPLE: usize = 1000;
const THETA: f64 = 0.3;
const PAGE: usize = 16 * 1024;
const DRAM: usize = 20 << 20;
const NVM: usize = 60 << 20;
/// Seed of the migration policy's coin flips. The same in every run: the
/// flips are the system's own, not an input, and with a seed of their own
/// per run the load phase alone would move the write metrics by a sixth.
const POLICY_SEED: u64 = 0x5f17_f17e;

#[derive(Debug, Clone, Copy)]
pub struct YcsbSpec {
    pub name: &'static str,
    /// Tuples loaded; 1000 B each.
    pub keys: u64,
    pub update_pct: u32,
    /// Call `Maintenance::tick()` every [`TICK_EVERY`](crate::TICK_EVERY) ops.
    pub tick: bool,
    /// End each segment with `vacuum()` + `checkpoint()`, and run a last
    /// stretch of ops past the final checkpoint for recovery to redo.
    pub maintain: bool,
    /// Ops per segment, sized so that a segment takes about 1/1.6 s at the
    /// commit that added the benchmark, on its host.
    pub segment_ops: u64,
    /// Segments run, unmeasured and with delays off, before the first
    /// measured op.
    pub warmup_segments: u64,
}

pub const SPECS: [YcsbSpec; 3] = [
    YcsbSpec {
        name: "ycsb-ro-cached",
        keys: 5_000,
        update_pct: 0,
        tick: false,
        maintain: false,
        segment_ops: 160_000,
        warmup_segments: 1,
    },
    YcsbSpec {
        name: "ycsb-ro-tiered",
        keys: 100_000,
        update_pct: 0,
        tick: true,
        maintain: false,
        segment_ops: 24_000,
        warmup_segments: 4,
    },
    YcsbSpec {
        name: "ycsb-wh-tiered",
        keys: 20_000,
        update_pct: 90,
        tick: true,
        maintain: true,
        segment_ops: 16_000,
        warmup_segments: 2,
    },
];

/// Op counts of one run, fixed by the spec and the arguments alone.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub segment_ops: u64,
    pub warmup_segments: u64,
    pub segments: u64,
    /// Ops after the last checkpoint (write-heavy workload only).
    pub tail_ops: u64,
}

impl Plan {
    pub fn new(spec: &YcsbSpec, args: &RunArgs) -> Self {
        let segment_ops = args.scaled(spec.segment_ops, TICK_EVERY);
        Plan {
            segment_ops,
            warmup_segments: spec.warmup_segments,
            segments: args.segments(),
            tail_ops: if spec.maintain {
                segment_ops * 4 / 5
            } else {
                0
            },
        }
    }

    pub fn total_ops(&self) -> u64 {
        (self.warmup_segments + self.segments) * self.segment_ops + self.tail_ops
    }
}

/// The op stream a run of `spec` with `args` is offered.
pub fn stream_for(spec: &YcsbSpec, args: &RunArgs) -> OpStream {
    let plan = Plan::new(spec, args);
    OpStream::generate(
        args.seed,
        spec.keys,
        THETA,
        spec.update_pct,
        None,
        plan.total_ops(),
    )
}

/// One timed stretch of ops.
#[derive(Debug, Clone)]
struct Slice {
    /// Which of its segment's [`SLICES`] it is.
    position: u64,
    secs: f64,
    traced: bool,
    /// Where its ops' latencies sit in [`Phase::lat_ns`] (empty when traced).
    lat: std::ops::Range<usize>,
}

/// Everything the measured phase records.
#[derive(Debug, Default)]
struct Phase {
    slices: Vec<Slice>,
    /// Seconds of each vacuum + checkpoint pair.
    maintenance_secs: Vec<f64>,
    /// Latency of every untraced op, in op order.
    lat_ns: Vec<u32>,
    vacuum_ms: Vec<f64>,
    vacuum_freed: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_pages: Vec<f64>,
}

/// The single client: the store, the inputs, and what it has seen.
struct Client<'a> {
    db: Arc<Database>,
    maint: Maintenance,
    spec: &'a YcsbSpec,
    stream: &'a OpStream,
    oracle: Oracle,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    next_op: u64,
    committed: u64,
    failed: u64,
    retries: u64,
    errors: Vec<String>,
    tick_time: Duration,
    /// Modelled device time of the traffic of `tick()`, `vacuum()` and
    /// `checkpoint()`: work the ops did not cause themselves.
    background_busy_ns: f64,
}

impl<'a> Client<'a> {
    /// Build the stack with delays off, load every key, and checkpoint.
    fn load(spec: &'a YcsbSpec, stream: &'a OpStream) -> Result<Self, String> {
        let config = BufferManagerConfig::builder()
            .page_size(PAGE)
            .dram_capacity(DRAM)
            .nvm_capacity(NVM)
            .policy(MigrationPolicy::lazy())
            .dram_policy(PolicyConfig::Clock)
            .nvm_policy(PolicyConfig::Clock)
            .persistence(PersistenceTracking::Counters)
            .time_scale(TimeScale::ZERO)
            .seed(POLICY_SEED)
            .build()
            .map_err(err("buffer config"))?;
        let bm = Arc::new(BufferManager::new(config).map_err(err("buffer manager"))?);
        let maint = bm.maintenance();
        let db = Arc::new(Database::create(bm, DbConfig::default()).map_err(err("database"))?);
        db.enable_snapshots(SnapshotConfig::default());
        db.create_table(TABLE, TUPLE).map_err(err("create table"))?;

        let mut payload = vec![0u8; TUPLE];
        let mut key = 0u64;
        while key < spec.keys {
            let mut txn = db.begin();
            let end = (key + 256).min(spec.keys);
            while key < end {
                fill_payload(&mut payload, key as u32, 0);
                db.insert(&mut txn, TABLE, key, &payload)
                    .map_err(err("load"))?;
                key += 1;
            }
            db.commit(&mut txn).map_err(err("load commit"))?;
        }
        db.checkpoint().map_err(err("initial checkpoint"))?;
        Ok(Client {
            db,
            maint,
            spec,
            stream,
            oracle: Oracle::new(spec.keys),
            read_buf: vec![0u8; TUPLE],
            write_buf: payload,
            next_op: 0,
            committed: 0,
            failed: 0,
            retries: 0,
            errors: Vec::new(),
            tick_time: Duration::ZERO,
            background_busy_ns: 0.0,
        })
    }

    /// One operation as its own transaction, retried on a retryable error.
    /// False when it failed for good or read a wrong value.
    #[inline]
    fn exec(&mut self, op: Op, ctx: &mut Option<TraceCtx<'_>>) -> bool {
        let key = op.key as u64;
        for _ in 0..ATTEMPTS {
            let mut txn = spanned(ctx, SpanName::TxnBegin, || self.db.begin());
            let result = if op.update {
                fill_payload(&mut self.write_buf, op.key, op.byte);
                spanned(ctx, SpanName::TxnUpdate, || {
                    self.db.update(&mut txn, TABLE, key, &self.write_buf)
                })
                .and_then(|()| spanned(ctx, SpanName::TxnCommitRw, || self.db.commit(&mut txn)))
            } else {
                spanned(ctx, SpanName::TxnRead, || {
                    self.db.read_into(&txn, TABLE, key, &mut self.read_buf)
                })
                .and_then(|()| spanned(ctx, SpanName::TxnCommitRo, || self.db.commit(&mut txn)))
            };
            match result {
                Ok(()) => {
                    if op.update {
                        self.oracle.acknowledge(op.key, op.byte);
                    } else if !self.oracle.check(op.key, &self.read_buf) {
                        return false;
                    }
                    self.committed += 1;
                    return true;
                }
                Err(e) => {
                    if txn.is_active() {
                        let _ = self.db.abort(&mut txn);
                    }
                    if !e.is_retryable() {
                        if self.errors.len() < 5 {
                            self.errors
                                .push(format!("op {} key {key}: {e}", self.next_op));
                        }
                        return false;
                    }
                    self.retries += 1;
                }
            }
        }
        false
    }

    /// The next `n` ops of the stream, each timed from begin to commit.
    fn run_ops(&mut self, n: u64, lat_ns: &mut Vec<u32>, mut tracer: Option<&mut Tracer>) {
        for _ in 0..n {
            let op = self.stream.at(self.next_op);
            let ok = match tracer.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let ok = self.exec(op, &mut None);
                    lat_ns.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                    ok
                }
                Some(tracer) => {
                    let op_span = tracer.begin(SpanName::Op, None, self.next_op);
                    let mut ctx = Some(TraceCtx {
                        tracer,
                        op_span,
                        op: self.next_op,
                    });
                    let ok = self.exec(op, &mut ctx);
                    if let Some(c) = ctx {
                        c.tracer.end(op_span);
                    }
                    ok
                }
            };
            self.failed += !ok as u64;
            self.next_op += 1;
            if self.spec.tick && self.next_op.is_multiple_of(TICK_EVERY) {
                let before = DeviceTraffic::read(self.db.buffer_manager());
                let t = Instant::now();
                self.maint.tick();
                self.tick_time += t.elapsed();
                self.account_background(&before);
            }
        }
    }

    /// Nothing in the tree vacuums or checkpoints on its own, so the
    /// harness does, at the cadence a user would have to.
    fn maintain(&mut self, phase: &mut Phase) -> Result<(), String> {
        let before = DeviceTraffic::read(self.db.buffer_manager());
        let t = Instant::now();
        let v = self.db.vacuum().map_err(err("vacuum"))?;
        phase.vacuum_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.vacuum_freed.push(v.freed as f64);
        let t = Instant::now();
        let c = self.db.checkpoint().map_err(err("checkpoint"))?;
        phase.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.checkpoint_pages.push(c.pages as f64);
        self.account_background(&before);
        Ok(())
    }

    fn account_background(&mut self, before: &DeviceTraffic) {
        let traffic = DeviceTraffic::read(self.db.buffer_manager()).since(before);
        self.background_busy_ns += traffic.busy_ns_total();
    }

    /// `ops` measured ops, timed in [`SLICES`] slices.
    fn sliced_ops(&mut self, ops: u64, phase: &mut Phase, mut tracer: Option<&mut Tracer>) {
        let mut left = ops;
        for position in 0..SLICES {
            let n = left / (SLICES - position);
            left -= n;
            let first = phase.lat_ns.len();
            let t = Instant::now();
            self.run_ops(n, &mut phase.lat_ns, tracer.as_deref_mut());
            phase.slices.push(Slice {
                position,
                secs: t.elapsed().as_secs_f64(),
                traced: tracer.is_some(),
                lat: first..phase.lat_ns.len(),
            });
        }
    }

    /// One measured segment: its ops, then its maintenance where the
    /// workload has any.
    fn segment(
        &mut self,
        ops: u64,
        phase: &mut Phase,
        tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        self.sliced_ops(ops, phase, tracer);
        if self.spec.maintain {
            let t = Instant::now();
            self.maintain(phase)?;
            phase.maintenance_secs.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Load, then warm up: the state at the first measured op is the same
    /// in every run of the same seed.
    fn set_up(spec: &'a YcsbSpec, stream: &'a OpStream, plan: &Plan) -> Result<Self, String> {
        let mut client = Client::load(spec, stream)?;
        let mut unmeasured = Phase::default();
        for _ in 0..plan.warmup_segments {
            client.run_ops(plan.segment_ops, &mut unmeasured.lat_ns, None);
            if spec.maintain {
                client.maintain(&mut unmeasured)?;
            }
        }
        if client.failed > 0 {
            return Err(format!(
                "{} warm-up ops failed: {:?}",
                client.failed, client.errors
            ));
        }
        client.committed = 0;
        client.tick_time = Duration::ZERO;
        client.background_busy_ns = 0.0;
        Ok(client)
    }

    /// Bytes the store occupies per byte of live user data.
    fn space_amp(&self) -> f64 {
        let bm = self.db.buffer_manager();
        let snapshot = self
            .db
            .snapshot_engine()
            .map_or(0, |e| e.store().used_bytes());
        let stored = bm.page_count() * bm.page_size() as u64 + self.db.wal().log_bytes() + snapshot;
        stored as f64 / (self.spec.keys * TUPLE as u64) as f64
    }
}

/// What a run measured, before it is turned into metrics.
struct Measured<'a> {
    spec: &'a YcsbSpec,
    plan: Plan,
    client: Client<'a>,
    phase: Phase,
    tracer: Tracer,
    /// Counters since the store was created, and over the measured phase.
    total: Counters,
    delta: Counters,
    phase_secs: f64,
    space_amp: f64,
    setup_secs: Vec<f64>,
    recovered: Recovered,
}

impl Measured<'_> {
    /// A segment's best time, rebuilt slice position by slice position:
    /// a slice's cost depends on where in the maintenance cycle it falls.
    ///
    /// Time-based results are best-of because nearly everything the host
    /// does to the program — by a quarter, for seconds at a time — slows it
    /// down, so the fastest slice is the one that says most about it.
    fn best_segment_secs(&self, traced: bool) -> f64 {
        (0..SLICES)
            .map(|p| {
                let at_p = self
                    .phase
                    .slices
                    .iter()
                    .filter(|s| s.traced == traced && s.position == p);
                min_of(at_p.map(|s| s.secs))
            })
            .sum()
    }

    /// Median and 99th percentile of the best untraced slice, in ns.
    fn best_slice_lat(&self) -> (f64, f64) {
        let phase = &self.phase;
        let mut slice_lat: Vec<Samples> = phase
            .slices
            .iter()
            .filter(|s| !s.traced)
            .map(|s| Samples::from_ns(phase.lat_ns[s.lat.clone()].iter().copied()))
            .collect();
        best_slice(&mut slice_lat)
    }

    fn put_end_to_end(&self, m: &mut Metrics) {
        let phase = &self.phase;
        let best_maintenance_secs = min_of(phase.maintenance_secs.iter().copied());
        let plan = &self.plan;
        EndToEnd {
            setup_secs: &self.setup_secs,
            ops_per_s: plan.segment_ops as f64
                / (self.best_segment_secs(false) + best_maintenance_secs),
            lat_p50_ns: self.best_slice_lat().0,
            lifetime: &self.total,
            lifetime_ops: self.spec.keys
                + plan.warmup_segments * plan.segment_ops
                + self.client.committed,
            space_amp: self.space_amp,
            recover_ms: &self.recovered.ms,
        }
        .put(m);
    }

    fn put_per_layer(&self, m: &mut Metrics, rungs: &ladder::Ladder, ctl: (f64, f64)) {
        let (phase, tracer, recovery) = (&self.phase, &self.tracer, &self.recovered.stats);
        let ops = self.client.committed as f64;
        put_count_metrics(m, &self.delta, ops);
        let op_secs: f64 = phase.slices.iter().map(|s| s.secs).sum();
        let maint_secs: f64 = phase.maintenance_secs.iter().sum();
        m.put(
            "core.tick_share",
            self.client.tick_time.as_secs_f64() / self.phase_secs,
        );
        m.put("txn.vacuum_ms", median(&phase.vacuum_ms));
        m.put("txn.vacuum_freed_per_call", mean(&phase.vacuum_freed));
        m.put("txn.checkpoint_ms", median(&phase.checkpoint_ms));
        m.put("txn.maint_share", maint_secs / (op_secs + maint_secs));
        m.put("txn.recover.redone", recovery.redone as f64);
        m.put("txn.recover.index_entries", recovery.index_entries as f64);
        let generations = self
            .client
            .db
            .snapshot_engine()
            .map_or(0, |e| e.generation());
        m.put("snapshot.generations", generations as f64);
        m.put("snapshot.pages_per_ckpt", mean(&phase.checkpoint_pages));
        let checkpoints = phase.checkpoint_ms.len().max(1) as f64;
        m.put(
            "snapshot.write_bytes_per_ckpt",
            self.delta.snapshot_store.bytes_written as f64 / checkpoints,
        );
        m.put("snapshot.recover_pages", recovery.snapshot_pages as f64);

        const TXN_SPANS: [(SpanName, &str); 5] = [
            (SpanName::TxnBegin, "txn.begin_ns"),
            (SpanName::TxnRead, "txn.read_ns"),
            (SpanName::TxnUpdate, "txn.update_ns"),
            (SpanName::TxnCommitRo, "txn.commit_ro_ns"),
            (SpanName::TxnCommitRw, "txn.commit_rw_ns"),
        ];
        for (span, metric) in TXN_SPANS {
            m.put(metric, tracer.durations(span).p50());
        }
        // No server in this workload.
        for name in [
            "server.codec_ns",
            "server.admit_ns",
            "server.sched_ns",
            "server.self_us",
            "server.sheds_per_op",
            "server.protocol_errors",
        ] {
            m.put(name, 0.0);
        }
        m.put("server.retries_per_op", self.client.retries as f64 / ops);
        m.put(
            "trace.overhead_pct",
            100.0 * (self.best_segment_secs(true) / self.best_segment_secs(false) - 1.0),
        );
        let mut lat = Samples::from_ns(phase.lat_ns.iter().copied());
        put_host_metrics(m, self.best_slice_lat().1, &mut lat, ctl);
        ladder::put_rung_metrics(m, rungs);
        let in_txn: f64 = TXN_SPANS
            .iter()
            .map(|(span, _)| tracer.total_ns(*span))
            .sum();
        ladder::put_ledger(
            m,
            rungs,
            &LedgerInput {
                harness_ns: tracer.op_self_times().mean(),
                server_ns: 0.0,
                upper_ns: in_txn / tracer.ops() as f64,
                update_share: self.spec.update_pct as f64 / 100.0,
                lat_mean_ns: lat.mean(),
                device_ns: (self.delta.devices.busy_ns_total() - self.client.background_busy_ns)
                    / ops,
                delta: &self.delta,
                ops,
            },
        );
    }
}

/// Run one in-process workload.
pub fn run(spec: &YcsbSpec, args: RunArgs) -> Result<Outcome, String> {
    let plan = Plan::new(spec, &args);
    let stream = stream_for(spec, &args);
    let mut out = Outcome {
        stream_hash: stream.hash(),
        ..Outcome::default()
    };

    // Set-up, several times over in an untraced run: its time is an
    // end-to-end metric, and one sample of it would be noise.
    let mut setup_secs = Vec::new();
    let mut client = None;
    for _ in 0..args.setups() {
        drop(client.take());
        let t = Instant::now();
        client = Some(Client::set_up(spec, &stream, &plan)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut client = client.expect("at least one set-up ran");

    // The measured phase. In a traced run plain and traced segments
    // alternate, so that both see the same store at the same age.
    let ctl_before = host::control_ns_per_iter_if(args.traced);
    let traced_ops = if args.traced {
        plan.segments / 2 * plan.segment_ops
    } else {
        0
    };
    let mut tracer = Tracer::new(Instant::now(), traced_ops as usize * 4);
    let measured_ops = plan.segments * plan.segment_ops + plan.tail_ops;
    let mut phase = Phase::default();
    phase.lat_ns.reserve((measured_ops - traced_ops) as usize);
    let before = Counters::read(&client.db);
    client.db.set_time_scale(TimeScale::REAL);
    let start = Instant::now();
    for i in 0..plan.segments {
        let tracer = (args.traced && i % 2 == 1).then_some(&mut tracer);
        client.segment(plan.segment_ops, &mut phase, tracer)?;
    }
    // The ops past the last checkpoint: recovery's work, no segment.
    client.run_ops(plan.tail_ops, &mut phase.lat_ns, None);
    let phase_secs = start.elapsed().as_secs_f64();
    client.db.set_time_scale(TimeScale::ZERO);
    let total = Counters::read(&client.db);
    let delta = total.since(&before);
    let ctl_after = host::control_ns_per_iter_if(args.traced);
    let space_amp = client.space_amp();
    if client.committed == 0 {
        return Err(format!("no measured op committed: {:?}", client.errors));
    }

    // The ladder, on the store as the measured phase left it.
    let rungs = if args.traced {
        let make_tuple = |key, byte| {
            let mut tuple = vec![0u8; TUPLE];
            fill_payload(&mut tuple, key, byte);
            tuple
        };
        let oracle = (spec.update_pct > 0).then_some(&mut client.oracle);
        Some(ladder::climb(
            &client.db,
            TABLE,
            spec.keys,
            &stream,
            &make_tuple,
            oracle,
        )?)
    } else {
        None
    };

    let table = recovery::Table {
        id: TABLE,
        tuple_bytes: TUPLE,
        check: &|oracle, key, tuple| oracle.check(key, tuple),
    };
    let recovered = crash_and_recover(&client.db, &table, &mut client.oracle, args.recoveries())?;

    let measured = Measured {
        spec,
        plan,
        client,
        phase,
        tracer,
        total,
        delta,
        phase_secs,
        space_amp,
        setup_secs,
        recovered,
    };
    match &rungs {
        None => measured.put_end_to_end(&mut out.metrics),
        Some(rungs) => {
            measured.put_per_layer(&mut out.metrics, rungs, (ctl_before, ctl_after));
            out.notes.push(measured.tracer.write_for(spec.name)?);
        }
    }

    let best_lat = measured.best_slice_lat();
    let Measured {
        client,
        phase,
        recovered,
        delta,
        ..
    } = measured;
    out.attempted = measured_ops + recovered.read_back;
    out.failed = client.failed + recovered.lost;
    out.counters = delta;
    out.notes.push(format!(
        "ops: {} measured in {} segments of {} (+{} past the last checkpoint), {} warm-up, {} retries",
        client.committed,
        plan.segments,
        plan.segment_ops,
        plan.tail_ops,
        plan.warmup_segments * plan.segment_ops,
        client.retries
    ));
    out.notes.push(format!(
        "latency: {} samples; best of {} slices: p50 {:.3} us, p99 {:.3} us",
        phase.lat_ns.len(),
        phase.slices.iter().filter(|s| !s.traced).count(),
        best_lat.0 / 1e3,
        best_lat.1 / 1e3
    ));
    out.notes.push(format!(
        "recovery: {} cycles, the last redid {} records and installed {} snapshot pages; {} lost acknowledged writes",
        recovered.ms.len(),
        recovered.stats.redone,
        recovered.stats.snapshot_pages,
        recovered.lost
    ));
    let errors = client.errors.iter().chain(&recovered.errors);
    out.notes.extend(errors.map(|e| format!("error: {e}")));
    out.notes.extend(
        client
            .oracle
            .samples
            .iter()
            .map(|e| format!("wrong read: {e}")),
    );
    Ok(out)
}
