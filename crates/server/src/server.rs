//! The server proper: listener, per-connection readers, worker pool, and
//! the memory-pressure monitor.
//!
//! # Threading model
//!
//! * **Acceptor** — one thread blocked in `accept`; spawns a reader
//!   thread per connection. Stopping the server wakes it with one
//!   connection to its own address.
//! * **Readers** — one per connection; block in [`read_frame`] on a
//!   buffered stream, decode, run [`Admission::admit`], and write a shed
//!   reply themselves. An admitted request that nothing waits behind runs
//!   to completion on the reader: its buffer holds no further bytes, the
//!   connection has nothing queued and no worker has claimed it, and
//!   [`Scheduler::try_claim`] finds no connection ready and an execution
//!   slot free. Otherwise the reader pushes it onto the connection's
//!   bounded queue and marks the connection ready in the [`Scheduler`].
//! * **Workers** — a small pool (one per-thread descriptor cache each, as
//!   everywhere else in the tree); each pulls a *connection* from the
//!   weighted-fair scheduler, executes a batch of its requests against
//!   the connection's [`Session`], and writes replies.
//! * **Pressure monitor** — samples [`BufferManager::pressure`] and
//!   raises the admission shed signal while free frames sit below the
//!   maintenance low watermark or miss-path backpressure fallbacks climb.
//!   On the same poll it calls [`Database::maintain`], which vacuums and
//!   checkpoints once per DRAM tier's worth of log, so the tables and the
//!   log a restart replays stay bounded however long the server runs. A
//!   pass running at stop finishes before the monitor exits.
//!
//! Worker dispatches and inline runs draw on the same
//! [`ServerConfig::workers`] execution slots, so at most that many threads
//! execute database work at once however many connections there are, and
//! a connection's requests still run one at a time, in arrival order.
//!
//! A connection is pinned to the tenant of its first request; frames that
//! later name a different tenant are protocol errors. Disconnects abort
//! any open transaction (the [`Session`] drop / explicit abort) and
//! release every queued request's admission charge.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spitfire_core::{BufferManager, BufferManagerConfig, Maintenance};
use spitfire_obs::{HistogramSet, Source};
use spitfire_txn::{Database, DbConfig, Session, TxnError};

use crate::admission::{Admission, AdmissionConfig, TenantConfig, Verdict};
use crate::protocol::{
    encode_reply, read_frame, Command, ErrorCode, Opcode, Reply, Request, MAX_FRAME,
};
use crate::scheduler::{Schedulable, Scheduler};

/// Tenant id of a connection before its first request arrives.
const TENANT_UNSET: u32 = u32::MAX;

/// Requests a worker executes per scheduler dispatch before re-queueing
/// the connection (bounds head-of-line blocking by one busy connection).
const WORKER_BATCH: usize = 8;

/// Pressure-monitor sampling interval.
const PRESSURE_POLL: Duration = Duration::from_millis(5);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    pub addr: String,
    /// Threads executing database operations at once: the worker pool's
    /// size, and the bound on workers plus readers running a request
    /// inline.
    pub workers: usize,
    /// Buffer-manager page size in bytes.
    pub page_size: usize,
    /// DRAM tier capacity in bytes.
    pub dram_bytes: usize,
    /// NVM tier capacity in bytes.
    pub nvm_bytes: usize,
    /// Maximum value payload per key; tuple size is `2 + value_bytes`.
    pub value_bytes: usize,
    /// Keys preloaded per tenant table at startup (keys `0..preload`).
    pub preload_keys: u64,
    /// One entry per tenant: scheduler weight and optional quota.
    pub tenants: Vec<TenantConfig>,
    /// Queue bounds and pressure shedding.
    pub admission: AdmissionConfig,
    /// Whether a SHUTDOWN frame may stop the server (CI smoke uses this).
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            page_size: 4096,
            dram_bytes: 4 << 20,
            nvm_bytes: 16 << 20,
            value_bytes: 64,
            preload_keys: 1024,
            tenants: vec![TenantConfig::default()],
            admission: AdmissionConfig::default(),
            allow_remote_shutdown: false,
        }
    }
}

/// One request sitting in a connection's queue.
struct Queued {
    req: Request,
    enqueued: Instant,
}

/// Per-connection state shared between its reader and the workers.
pub struct Conn {
    id: u64,
    /// Reader-side stream; also shut down by the server to unblock the
    /// reader at stop time.
    stream: TcpStream,
    /// Writer half (a `try_clone`), serialised across workers + reader.
    write: Mutex<TcpStream>,
    /// Tenant pinned by the first request (`TENANT_UNSET` before that).
    tenant: AtomicU32,
    queue: Mutex<Vec<Queued>>,
    /// True while the connection sits in (or is claimed from) the
    /// scheduler; guards against double-enqueue, and while it is set a
    /// worker may hold requests drained from `queue`, so the reader must
    /// not run one inline.
    scheduled: AtomicBool,
    closed: AtomicBool,
    session: Mutex<Session>,
}

impl Schedulable for Conn {
    fn tenant(&self) -> u32 {
        // relaxed: the tenant pin is written once by the connection's own handler; cross-thread readers accept any snapshot.
        self.tenant.load(Ordering::Relaxed)
    }
}

impl Conn {
    fn send(&self, opcode: Opcode, request_id: u64, reply: &Reply) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        // relaxed: see `tenant` — write-once pin, advisory readers.
        let tenant = self.tenant.load(Ordering::Relaxed);
        let frame = encode_reply(opcode, tenant, request_id, reply);
        let mut w = self.write.lock();
        if w.write_all(&frame).is_err() {
            self.closed.store(true, Ordering::Release);
        }
    }
}

/// State shared by every server thread.
struct Shared {
    config: ServerConfig,
    bm: Arc<BufferManager>,
    db: Arc<Database>,
    admission: Admission,
    sched: Scheduler<Conn>,
    stop: AtomicBool,
    /// The bound address; stopping connects to it once to wake the
    /// acceptor.
    addr: SocketAddr,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_conn: AtomicU64,
    accepted: AtomicU64,
    protocol_errors: AtomicU64,
    /// Requests a reader ran itself.
    inline_ops: AtomicU64,
    /// Requests a worker ran from a connection's queue.
    queued_ops: AtomicU64,
    /// Server-side request latency (admission → reply), one per tenant.
    tenant_hists: Vec<Arc<HistogramSet>>,
}

/// A running server; dropping it stops and joins everything.
pub struct Server {
    shared: Arc<Shared>,
    maintenance: Maintenance,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Build the storage stack, preload tables, install snapshot
    /// generation 1, bind, and spin up the acceptor, worker pool, and
    /// pressure monitor.
    pub fn start(config: ServerConfig) -> Result<Server, Box<dyn std::error::Error>> {
        assert!(!config.tenants.is_empty(), "need at least one tenant");
        assert!(
            config.value_bytes + 2 <= MAX_FRAME / 2,
            "value_bytes too large for the frame limit"
        );
        let bm_config = BufferManagerConfig::builder()
            .page_size(config.page_size)
            .dram_capacity(config.dram_bytes)
            .nvm_capacity(config.nvm_bytes)
            .build()?;
        let bm = Arc::new(BufferManager::new(bm_config)?);
        let maintenance = bm.maintenance();
        let db = Arc::new(Database::create(Arc::clone(&bm), DbConfig::default())?);
        let tuple_size = 2 + config.value_bytes;
        for t in 0..config.tenants.len() as u32 {
            db.create_table(t, tuple_size)?;
            preload(&db, t, config.preload_keys, tuple_size)?;
        }
        // A restart from here on loads a generation and replays its tail.
        db.checkpoint()?;
        // Start background maintenance only after the bulk preload, so the
        // load phase doesn't race the watermark evictor.
        maintenance.start();

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let weights: Vec<u32> = config.tenants.iter().map(|t| t.weight).collect();
        let tenant_hists = (0..config.tenants.len())
            .map(|t| spitfire_obs::labeled_histogram(&format!("srv_tenant{t}")))
            .collect();
        let shared = Arc::new(Shared {
            admission: Admission::new(config.admission.clone(), &config.tenants),
            sched: Scheduler::with_slots(weights, config.workers.max(1)),
            stop: AtomicBool::new(false),
            addr,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            inline_ops: AtomicU64::new(0),
            queued_ops: AtomicU64::new(0),
            tenant_hists,
            config,
            bm,
            db,
        });
        spitfire_obs::register_source(&shared.bm);
        spitfire_obs::register_source(&shared.db);
        spitfire_obs::register_source(&shared);

        let mut threads = Vec::new();
        for w in 0..shared.config.workers.max(1) {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("spitfire-worker-{w}"))
                    .spawn(move || worker_loop(&s))?,
            );
        }
        {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("spitfire-pressure".to_string())
                    .spawn(move || pressure_loop(&s))?,
            );
        }
        {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("spitfire-accept".to_string())
                    .spawn(move || accept_loop(&s, listener))?,
            );
        }
        Ok(Server {
            shared,
            maintenance,
            threads,
        })
    }

    /// The bound address (use with `addr: "127.0.0.1:0"`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The underlying database (tests inspect residency and txn stats).
    pub fn database(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// The underlying buffer manager.
    pub fn buffer_manager(&self) -> &Arc<BufferManager> {
        &self.shared.bm
    }

    /// Per-tenant admission state (tests assert shed counts).
    pub fn admission(&self) -> &Admission {
        &self.shared.admission
    }

    /// The report a STATS frame returns (this server's buffer manager,
    /// database and front-end sources).
    pub fn report(&self) -> spitfire_obs::Report {
        self.shared.stats()
    }

    /// Total protocol errors observed (malformed / corrupt frames).
    pub fn protocol_errors(&self) -> u64 {
        // relaxed: advisory statistic.
        self.shared.protocol_errors.load(Ordering::Relaxed)
    }

    /// Whether a stop has been requested (locally or via SHUTDOWN frame).
    pub fn stop_requested(&self) -> bool {
        // relaxed: shutdown flag; a late observer just loops once more before noticing.
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Request a stop: wake workers, unblock readers, stop maintenance.
    pub fn stop(&self) {
        self.shared.begin_stop();
        self.maintenance.stop();
    }

    /// Stop and join all threads, consuming the server.
    pub fn shutdown(mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Shared {
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.sched.stop();
        for conn in self.conns.lock().values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // The acceptor checks `stop` after every accept; give it one.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
    }

    /// What STATS replies with: one report built from this server's own
    /// three sources (buffer manager, database, server), so concurrent
    /// servers in one process never see each other's numbers.
    fn stats(&self) -> spitfire_obs::Report {
        let mut report = spitfire_obs::Report::default();
        for source in [&*self.bm as &dyn Source, &*self.db, self] {
            source.report(&mut report);
        }
        report
    }
}

/// The front end's own numbers; per-tenant admission counters come from
/// [`Admission`]'s source.
impl Source for Shared {
    fn report(&self, out: &mut spitfire_obs::Report) {
        out.add_gauge("server_conns", self.conns.lock().len() as f64);
        // relaxed: advisory statistics with no cross-field consistency claim.
        out.add_counter("server_accepted", self.accepted.load(Ordering::Relaxed));
        // relaxed: advisory statistics, as above.
        for (name, counter) in [
            ("server_protocol_errors", &self.protocol_errors),
            ("server_inline_ops", &self.inline_ops),
            ("server_queued_ops", &self.queued_ops),
        ] {
            out.add_counter(name, counter.load(Ordering::Relaxed));
        }
        self.admission.report(out);
    }
}

/// Seed a tenant table with `keys` tuples in chunked transactions.
fn preload(db: &Arc<Database>, table: u32, keys: u64, tuple_size: usize) -> Result<(), TxnError> {
    let payload = encode_value(&[0u8; 0], tuple_size);
    let mut key = 0;
    while key < keys {
        let mut txn = db.begin();
        let end = (key + 256).min(keys);
        while key < end {
            db.insert(&mut txn, table, key, &payload)?;
            key += 1;
        }
        db.commit(&mut txn)?;
    }
    Ok(())
}

/// Encode a value into a fixed-size tuple: `[len u16 LE][payload][pad]`.
/// Length `0xFFFF` marks a tombstone (deleted key).
pub fn encode_value(value: &[u8], tuple_size: usize) -> Vec<u8> {
    debug_assert!(value.len() <= tuple_size - 2 && value.len() < 0xFFFF);
    let mut tuple = vec![0u8; tuple_size];
    tuple[..2].copy_from_slice(&(value.len() as u16).to_le_bytes());
    tuple[2..2 + value.len()].copy_from_slice(value);
    tuple
}

/// Tombstone tuple of the given size.
pub fn tombstone(tuple_size: usize) -> Vec<u8> {
    let mut tuple = vec![0u8; tuple_size];
    tuple[..2].copy_from_slice(&0xFFFFu16.to_le_bytes());
    tuple
}

/// Decode a tuple back into its value; `None` for tombstones.
pub fn decode_value(tuple: &[u8]) -> Option<&[u8]> {
    let len = u16::from_le_bytes([tuple[0], tuple[1]]);
    if len == 0xFFFF {
        return None;
    }
    Some(&tuple[2..2 + len as usize])
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // relaxed: the accept counter is a statistic and the conn id needs only the uniqueness the RMW provides.
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let write = match stream.try_clone() {
                    Ok(w) => w,
                    Err(_) => continue,
                };
                let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let conn = Arc::new(Conn {
                    id,
                    stream,
                    write: Mutex::new(write),
                    tenant: AtomicU32::new(TENANT_UNSET),
                    queue: Mutex::new(Vec::new()),
                    scheduled: AtomicBool::new(false),
                    closed: AtomicBool::new(false),
                    session: Mutex::new(Session::new(Arc::clone(&shared.db))),
                });
                shared.conns.lock().insert(id, Arc::clone(&conn));
                let s = Arc::clone(shared);
                // Readers get a worker's default stack: they run requests
                // inline, down through the index and the buffer manager.
                let spawned = std::thread::Builder::new()
                    .name(format!("spitfire-conn-{id}"))
                    .spawn(move || reader_loop(&s, &conn));
                if spawned.is_err() {
                    shared.conns.lock().remove(&id);
                }
            }
            // Out of descriptors or memory: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let mut reader = BufReader::new(&conn.stream);
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        let req = match crate::protocol::decode_request(&frame) {
            Ok(req) => req,
            Err(_) => {
                // Framing may be lost after a bad frame; reply and close.
                // relaxed: protocol-error statistic.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.send(
                    Opcode::Stats,
                    0,
                    &Reply::Error {
                        code: ErrorCode::Protocol,
                        retryable: false,
                        message: "malformed frame".to_string(),
                    },
                );
                break;
            }
        };
        let pipelined = !reader.buffer().is_empty();
        handle_request(shared, conn, req, pipelined);
    }
    disconnect(shared, conn);
}

/// Validate and admit one decoded request, then run it here or queue it
/// for a worker (or shed it). `pipelined`: the client already sent more
/// bytes behind this request.
fn handle_request(shared: &Arc<Shared>, conn: &Arc<Conn>, req: Request, pipelined: bool) {
    let opcode = req.cmd.opcode();
    if req.tenant as usize >= shared.admission.tenant_count() {
        // relaxed: protocol-error statistic.
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
        conn.send(
            opcode,
            req.request_id,
            &Reply::Error {
                code: ErrorCode::Protocol,
                retryable: false,
                message: format!("unknown tenant {}", req.tenant),
            },
        );
        return;
    }
    // Pin the connection's tenant on first use.
    // relaxed: the tenant pin is only written by this connection's handler thread (the atomic serves cross-thread advisory reads); the error counter is a statistic.
    let pinned = conn.tenant.load(Ordering::Relaxed);
    if pinned == TENANT_UNSET {
        conn.tenant.store(req.tenant, Ordering::Relaxed);
    } else if pinned != req.tenant {
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
        conn.send(
            opcode,
            req.request_id,
            &Reply::Error {
                code: ErrorCode::Protocol,
                retryable: false,
                message: format!("connection is pinned to tenant {pinned}"),
            },
        );
        return;
    }
    let depth = conn.queue.lock().len();
    match shared
        .admission
        .admit(req.tenant, req.cmd.is_finishing(), depth)
    {
        Verdict::Shed(code, reason) => {
            conn.send(opcode, req.request_id, &Reply::shed(code, reason));
        }
        Verdict::Admit => {
            let item = Queued {
                req,
                enqueued: Instant::now(),
            };
            // Run it here when nothing waits behind or ahead of it. Only
            // this thread grows the queue, so an empty one stays empty; a
            // clear `scheduled` (Acquire, pairing with the worker's
            // Release) means no worker holds a drained request either.
            // `try_claim` refuses while any connection is ready.
            if !pipelined
                && depth == 0
                && !conn.scheduled.load(Ordering::Acquire)
                && shared.sched.try_claim()
            {
                // relaxed: where-it-ran statistic.
                shared.inline_ops.fetch_add(1, Ordering::Relaxed);
                execute(shared, conn, item);
                shared.sched.release();
                return;
            }
            conn.queue.lock().push(item);
            if !conn.scheduled.swap(true, Ordering::AcqRel) {
                shared.sched.enqueue(Arc::clone(conn));
            }
        }
    }
}

/// Tear down a connection: drop it from the registry, refund queued
/// admissions, and abort any open transaction so its pins release.
fn disconnect(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    conn.closed.store(true, Ordering::Release);
    shared.conns.lock().remove(&conn.id);
    let drained = {
        let mut q = conn.queue.lock();
        let n = q.len();
        q.clear();
        n
    };
    for _ in 0..drained {
        shared.admission.release();
    }
    // Blocks until any worker currently executing on this session is done,
    // then aborts deterministically (rather than waiting for the last Arc).
    let _ = conn.session.lock().abort();
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(conn) = shared.sched.next() {
        // Claim a batch; the queue may already be empty (e.g. drained by a
        // disconnect after we were scheduled).
        let batch: Vec<Queued> = {
            let mut q = conn.queue.lock();
            let n = q.len().min(WORKER_BATCH);
            q.drain(..n).collect()
        };
        let dead = conn.closed.load(Ordering::Acquire);
        for item in batch {
            if dead {
                shared.admission.release();
                continue;
            }
            // relaxed: where-it-ran statistic.
            shared.queued_ops.fetch_add(1, Ordering::Relaxed);
            execute(shared, &conn, item);
        }
        // Re-arm: clear the claim, then re-enqueue if more arrived. The
        // second swap keeps exactly one scheduler entry per connection.
        // Re-enqueue before returning the slot, so a reader that sees the
        // slot free also sees this connection ready and does not pass it.
        conn.scheduled.store(false, Ordering::Release);
        if !conn.queue.lock().is_empty()
            && !conn.closed.load(Ordering::Acquire)
            && !conn.scheduled.swap(true, Ordering::AcqRel)
        {
            shared.sched.enqueue(conn);
        }
        shared.sched.release();
    }
}

/// Run one admitted request on the connection's session and reply.
fn execute(shared: &Arc<Shared>, conn: &Arc<Conn>, item: Queued) {
    let Queued { req, enqueued } = item;
    let opcode = req.cmd.opcode();
    let table = req.tenant;
    let tuple_size = 2 + shared.config.value_bytes;
    let mut session = conn.session.lock();
    let reply = match req.cmd {
        Command::Get { key } => match session.get(table, key) {
            Ok(tuple) => match decode_value(&tuple) {
                Some(v) => Reply::Value(v.to_vec()),
                None => Reply::from_txn_error(&TxnError::NotFound),
            },
            Err(e) => Reply::from_txn_error(&e),
        },
        Command::Put { key, ref value } => {
            if value.len() > shared.config.value_bytes {
                Reply::Error {
                    code: ErrorCode::Protocol,
                    retryable: false,
                    message: format!(
                        "value of {} bytes exceeds limit {}",
                        value.len(),
                        shared.config.value_bytes
                    ),
                }
            } else {
                match session.put(table, key, &encode_value(value, tuple_size)) {
                    Ok(()) => Reply::Ok,
                    Err(e) => Reply::from_txn_error(&e),
                }
            }
        }
        Command::Delete { key } => match delete_key(&mut session, table, key, tuple_size) {
            Ok(()) => Reply::Ok,
            Err(e) => Reply::from_txn_error(&e),
        },
        Command::Scan { start, limit } => {
            match session.scan(table, start, (limit as usize).min(1024)) {
                Ok(rows) => Reply::Rows(
                    rows.into_iter()
                        .filter_map(|(k, tuple)| decode_value(&tuple).map(|v| (k, v.to_vec())))
                        .collect(),
                ),
                Err(e) => Reply::from_txn_error(&e),
            }
        }
        Command::Begin => match session.begin() {
            Ok(ts) => Reply::TxnId(ts),
            Err(e) => Reply::from_txn_error(&e),
        },
        Command::Commit => match session.commit() {
            Ok(()) => Reply::Ok,
            Err(e) => Reply::from_txn_error(&e),
        },
        Command::Abort => match session.abort() {
            Ok(()) => Reply::Ok,
            Err(e) => Reply::from_txn_error(&e),
        },
        Command::Stats => Reply::Stats(shared.stats().json().compact()),
        Command::Shutdown => {
            if shared.config.allow_remote_shutdown {
                Reply::Ok
            } else {
                Reply::Error {
                    code: ErrorCode::Protocol,
                    retryable: false,
                    message: "remote shutdown disabled".to_string(),
                }
            }
        }
    };
    drop(session);
    let tenant = shared.admission.tenant(req.tenant);
    if matches!(reply, Reply::Error { .. }) {
        // relaxed: per-tenant op statistics.
        tenant.err_ops.fetch_add(1, Ordering::Relaxed);
    } else {
        tenant.ok_ops.fetch_add(1, Ordering::Relaxed);
    }
    shared.tenant_hists[req.tenant as usize].record(enqueued.elapsed().as_nanos() as u64);
    conn.send(opcode, req.request_id, &reply);
    shared.admission.release();
    if opcode == Opcode::Shutdown && shared.config.allow_remote_shutdown {
        shared.begin_stop();
    }
}

/// DELETE = read-check-tombstone, wrapped in a transaction when the
/// session doesn't already have one (a bare autocommit pair would race).
fn delete_key(
    session: &mut Session,
    table: u32,
    key: u64,
    tuple_size: usize,
) -> Result<(), TxnError> {
    let implicit = !session.in_txn();
    if implicit {
        session.begin()?;
    }
    let run = (|| {
        let tuple = session.get(table, key)?;
        if decode_value(&tuple).is_none() {
            return Err(TxnError::NotFound);
        }
        session.put(table, key, &tombstone(tuple_size))
    })();
    if implicit {
        match run {
            Ok(()) => session.commit()?,
            Err(_) => session.abort()?,
        }
    }
    run
}

fn pressure_loop(shared: &Arc<Shared>) {
    let mut last_fallbacks = shared.bm.pressure().backpressure_fallbacks;
    while !shared.stop.load(Ordering::Acquire) {
        std::thread::sleep(PRESSURE_POLL);
        let p = shared.bm.pressure();
        let fallbacks_climbing = p.backpressure_fallbacks > last_fallbacks;
        last_fallbacks = p.backpressure_fallbacks;
        shared
            .admission
            .set_pressure(p.below_low_watermark() || fallbacks_climbing);
        // A failed pass is retried an interval of log later, like a
        // contended one; the log and the last generation stay valid.
        let _ = shared.db.maintain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_encoding_round_trips() {
        let t = encode_value(b"hello", 16);
        assert_eq!(t.len(), 16);
        assert_eq!(decode_value(&t), Some(&b"hello"[..]));
        assert_eq!(decode_value(&encode_value(b"", 16)), Some(&b""[..]));
        assert_eq!(decode_value(&tombstone(16)), None);
    }
}
