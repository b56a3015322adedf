//! The TCP daemon: accept loop, per-connection handlers, job supervision.
//!
//! Threading model: one accept thread, one thread per connection, one
//! batch worker (see [`crate::batcher`]), and one short-lived supervisor
//! thread per heavy job (attack / campaign / debug sleep). Every thread
//! runs under the server's obs collector, so a private [`Collector`]
//! observes the whole server in tests while `glk serve` uses the global
//! one (and `--trace` sees everything).
//!
//! Responses may arrive out of request order: oracle answers fire from
//! the batch worker and job answers from their supervisors, each writing
//! the response frame under the connection's write lock with the
//! request's echoed id. Backpressure is explicit, never silent: a full
//! per-connection in-flight window or a full server job table answers
//! `busy` immediately, and the oracle queue cap does the same.
//!
//! Jobs are supervised exactly like the campaign pool supervises
//! attempts: the job runs on its own thread with a deadline
//! [`CancelToken`]; if it overruns the hard grace the supervisor abandons
//! the thread, answers `job-timeout`, and the server lives on.

use crate::batcher::{Batcher, BatcherConfig, LoadedDesign, Submit};
use crate::frame::{write_frame, DEFAULT_MAX_FRAME};
use crate::proto::{
    bits_from_string, bits_to_string, AttackJob, ErrorCode, Op, Reply, Request, Response,
};
use glitchlock_attacks::CancelToken;
use glitchlock_jobs::{
    check_retired, deterministic_metrics, job, run_campaign, CampaignConfig, CampaignSpec, JobSpec,
    Tuning,
};
use glitchlock_obs::{self as obs, json, names, SharedCollector};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Extra wall-clock a job gets past its cooperative deadline before the
/// supervisor abandons the thread (mirrors the campaign pool).
const HARD_GRACE: Duration = Duration::from_millis(250);

/// How often blocked reads and the accept loop re-check the stop flag.
const POLL: Duration = Duration::from_millis(25);

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (report via
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Per-frame payload cap.
    pub max_frame: usize,
    /// Per-connection cap on queued-but-unanswered async requests.
    pub max_inflight: usize,
    /// Server-wide cap on concurrently running heavy jobs.
    pub max_jobs: usize,
    /// Cooperative deadline per heavy job; the hard kill follows
    /// [`HARD_GRACE`] later.
    pub job_timeout: Duration,
    /// Oracle batcher tuning.
    pub batcher: BatcherConfig,
    /// Enable debug ops (`sleep`) — test harnesses only.
    pub allow_debug: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 64,
            max_jobs: 4,
            job_timeout: Duration::from_secs(60),
            batcher: BatcherConfig::default(),
            allow_debug: false,
        }
    }
}

struct Shared {
    config: ServerConfig,
    collector: SharedCollector,
    designs: Mutex<BTreeMap<String, Arc<LoadedDesign>>>,
    batcher: Batcher,
    stop: AtomicBool,
    jobs_running: AtomicUsize,
    next_client: AtomicU64,
}

/// A running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a stop; threads drain within a poll tick.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// True once a stop was requested (locally or via a `shutdown` op).
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Blocks until the accept loop exits (after [`ServerHandle::shutdown`]
    /// or a client `shutdown` op), then joins it.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Binds and starts a server; every server thread runs under `collector`.
///
/// # Errors
///
/// Bind failures.
pub fn start(config: ServerConfig, collector: SharedCollector) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking listener: {e}"))?;
    let shared = Arc::new(Shared {
        batcher: Batcher::start(config.batcher, Arc::clone(&collector)),
        config,
        collector: Arc::clone(&collector),
        designs: Mutex::new(BTreeMap::new()),
        stop: AtomicBool::new(false),
        jobs_running: AtomicUsize::new(0),
        next_client: AtomicU64::new(1),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("glk-serve-accept".to_string())
        .spawn(move || obs::scoped(&collector, || accept_loop(&accept_shared, &listener)))
        .map_err(|e| format!("spawn accept thread: {e}"))?;
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                obs::incr(names::SERVE_CONNECTIONS);
                let conn_shared = Arc::clone(shared);
                let conn_collector = Arc::clone(&shared.collector);
                let spawned = std::thread::Builder::new()
                    .name("glk-serve-conn".to_string())
                    .spawn(move || {
                        obs::scoped(&conn_collector, || handle_connection(&conn_shared, stream))
                    });
                if spawned.is_err() {
                    obs::incr(names::SERVE_ERRORS);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// The write half of a connection, shared with batcher callbacks and job
/// supervisors. `inflight` is the connection's async window.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    inflight: AtomicUsize,
}

impl ConnWriter {
    /// Serializes and frames one response under the write lock.
    fn send(&self, response: &Response) -> Result<(), ()> {
        let payload = response.encode();
        let mut stream = self.stream.lock().expect("connection write mutex");
        match write_frame(&mut *stream, &payload) {
            Ok(()) => {
                obs::incr(names::SERVE_RESPONSES);
                Ok(())
            }
            Err(_) => {
                obs::incr(names::SERVE_DISCONNECTS);
                Err(())
            }
        }
    }

    fn send_error(&self, id: u64, code: ErrorCode, message: String) {
        obs::incr(names::SERVE_ERRORS);
        let _ = self.send(&Response {
            id,
            reply: Reply::Error { code, message },
        });
    }
}

/// One blocking-with-timeout read step; distinguishes "no bytes yet"
/// (idle poll) from torn frames so shutdown stays responsive without
/// misreading slow frames as idleness.
enum Inbound {
    Frame(Vec<u8>),
    Idle,
    Closed,
    Torn { got: usize, want: usize },
    TooLarge { len: usize },
    Gone,
}

fn read_inbound(stream: &mut TcpStream, max_frame: usize, stop: &AtomicBool) -> Inbound {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match stream.read_fill(&mut header[filled..]) {
            Fill::Bytes(n) => filled += n,
            Fill::Eof if filled == 0 => return Inbound::Closed,
            Fill::Eof => {
                return Inbound::Torn {
                    got: filled,
                    want: header.len(),
                }
            }
            Fill::Timeout if filled == 0 => return Inbound::Idle,
            Fill::Timeout => {
                // Mid-header: keep waiting unless we are stopping.
                if stop.load(Ordering::SeqCst) {
                    return Inbound::Gone;
                }
            }
            Fill::Broken => return Inbound::Gone,
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Inbound::TooLarge { len };
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match stream.read_fill(&mut payload[filled..]) {
            Fill::Bytes(n) => filled += n,
            Fill::Eof => {
                return Inbound::Torn {
                    got: filled,
                    want: len,
                }
            }
            Fill::Timeout => {
                if stop.load(Ordering::SeqCst) {
                    return Inbound::Gone;
                }
            }
            Fill::Broken => return Inbound::Gone,
        }
    }
    Inbound::Frame(payload)
}

enum Fill {
    Bytes(usize),
    Eof,
    Timeout,
    Broken,
}

trait ReadFill {
    fn read_fill(&mut self, buf: &mut [u8]) -> Fill;
}

impl ReadFill for TcpStream {
    fn read_fill(&mut self, buf: &mut [u8]) -> Fill {
        use std::io::Read as _;
        match self.read(buf) {
            Ok(0) => Fill::Eof,
            Ok(n) => Fill::Bytes(n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Fill::Timeout
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Fill::Bytes(0),
            Err(_) => Fill::Broken,
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let client = shared.next_client.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            obs::incr(names::SERVE_ERRORS);
            return;
        }
    };
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(write_half),
        inflight: AtomicUsize::new(0),
    });
    let mut reader = stream;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match read_inbound(&mut reader, shared.config.max_frame, &shared.stop) {
            Inbound::Idle => continue,
            Inbound::Closed => return,
            Inbound::Gone => {
                obs::incr(names::SERVE_DISCONNECTS);
                return;
            }
            Inbound::Torn { got, want } => {
                // The read half died mid-frame; the write half may still
                // be up (half-close), so name the failure before leaving.
                obs::incr(names::SERVE_DISCONNECTS);
                writer.send_error(
                    0,
                    ErrorCode::BadFrame,
                    format!("torn frame: got {got} of {want} bytes"),
                );
                return;
            }
            Inbound::TooLarge { len } => {
                // The stream is desynchronized past the header: answer,
                // then drop the connection rather than guess a boundary.
                writer.send_error(
                    0,
                    ErrorCode::FrameTooLarge,
                    format!(
                        "frame of {len} bytes exceeds the {}-byte cap",
                        shared.config.max_frame
                    ),
                );
                return;
            }
            Inbound::Frame(payload) => handle_payload(shared, client, &writer, &payload),
        }
    }
}

fn handle_payload(shared: &Arc<Shared>, client: u64, writer: &Arc<ConnWriter>, payload: &[u8]) {
    obs::incr(names::SERVE_REQUESTS);
    obs::incr(&names::serve_client_requests(client));
    let parsed = std::str::from_utf8(payload)
        .map_err(|e| (ErrorCode::BadJson, format!("payload utf-8: {e}")))
        .and_then(|text| {
            json::parse(text).map_err(|e| (ErrorCode::BadJson, format!("payload json: {e}")))
        });
    let value = match parsed {
        Ok(v) => v,
        Err((code, message)) => {
            obs::incr(&names::serve_req("invalid"));
            writer.send_error(0, code, message);
            return;
        }
    };
    // Salvage the id even from malformed requests so the client can match
    // the error to its question.
    let id = value
        .get("id")
        .and_then(json::Value::as_num)
        .map(|n| n as u64)
        .unwrap_or(0);
    let request = match Request::from_json(&value) {
        Ok(r) => r,
        Err(e) => {
            obs::incr(&names::serve_req("invalid"));
            writer.send_error(id, ErrorCode::BadRequest, e);
            return;
        }
    };
    obs::incr(&names::serve_req(op_tag(&request.op)));
    dispatch(shared, writer, request);
}

fn op_tag(op: &Op) -> &'static str {
    match op {
        Op::Ping => "ping",
        Op::LoadBench { .. } => "load-bench",
        Op::LoadNetlist { .. } => "load-netlist",
        Op::Oracle { .. } => "oracle",
        Op::OracleBulk { .. } => "oracle-bulk",
        Op::OracleSweep { .. } => "oracle-sweep",
        Op::Attack(_) => "attack",
        Op::Campaign { .. } => "campaign",
        Op::Metrics => "metrics",
        Op::Sleep { .. } => "sleep",
        Op::Shutdown => "shutdown",
    }
}

fn dispatch(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, request: Request) {
    let id = request.id;
    match request.op {
        Op::Ping => {
            let _ = writer.send(&Response {
                id,
                reply: Reply::Pong,
            });
        }
        Op::LoadBench { name } => match job::resolve_bench(&name) {
            Ok(netlist) => load_design(shared, writer, id, &name, netlist),
            Err(e) => writer.send_error(id, ErrorCode::BadRequest, e),
        },
        Op::LoadNetlist { name, bench } => {
            match glitchlock_netlist::bench_format::parse_named(&bench, &name) {
                Ok(netlist) => load_design(shared, writer, id, &name, netlist),
                Err(e) => writer.send_error(id, ErrorCode::BadRequest, e.to_string()),
            }
        }
        Op::Oracle { design, pattern } => {
            submit_oracle(shared, writer, id, &design, vec![pattern], true);
        }
        Op::OracleBulk { design, patterns } => {
            submit_oracle(shared, writer, id, &design, patterns, false);
        }
        Op::OracleSweep {
            design,
            count,
            seed,
        } => {
            let Some(design) = lookup(shared, writer, id, &design) else {
                return;
            };
            let digest = run_sweep(&design, count, seed);
            let _ = writer.send(&Response {
                id,
                reply: Reply::Sweep { count, digest },
            });
        }
        Op::Attack(attack) => spawn_job(shared, writer, id, JobBody::Attack(attack)),
        Op::Campaign { spec, shard } => {
            spawn_job(shared, writer, id, JobBody::Campaign { spec, shard })
        }
        Op::Metrics => {
            let snapshot = shared.collector.registry().snapshot();
            let _ = writer.send(&Response {
                id,
                reply: Reply::Metrics {
                    metrics: deterministic_metrics(&snapshot),
                },
            });
        }
        Op::Sleep { ms } => {
            if !shared.config.allow_debug {
                writer.send_error(
                    id,
                    ErrorCode::DebugDisabled,
                    "debug ops are disabled (start the server with debug enabled)".to_string(),
                );
                return;
            }
            spawn_job(shared, writer, id, JobBody::Sleep { ms });
        }
        Op::Shutdown => {
            let _ = writer.send(&Response {
                id,
                reply: Reply::ShuttingDown,
            });
            shared.stop.store(true, Ordering::SeqCst);
        }
    }
}

fn load_design(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    id: u64,
    name: &str,
    netlist: glitchlock_netlist::Netlist,
) {
    match LoadedDesign::new(name, netlist) {
        Ok(design) => {
            let (inputs, outputs) = (design.num_inputs(), design.num_outputs());
            let mut designs = shared.designs.lock().expect("designs mutex");
            designs.insert(name.to_string(), Arc::new(design));
            obs::gauge_set(names::SERVE_DESIGNS, designs.len() as f64);
            drop(designs);
            let _ = writer.send(&Response {
                id,
                reply: Reply::Loaded {
                    design: name.to_string(),
                    inputs,
                    outputs,
                },
            });
        }
        Err(e) => writer.send_error(id, ErrorCode::BadRequest, e),
    }
}

fn lookup(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    id: u64,
    name: &str,
) -> Option<Arc<LoadedDesign>> {
    let designs = shared.designs.lock().expect("designs mutex");
    match designs.get(name) {
        Some(design) => Some(Arc::clone(design)),
        None => {
            drop(designs);
            writer.send_error(
                id,
                ErrorCode::UnknownDesign,
                format!("design `{name}` is not loaded (use load-bench / load-netlist)"),
            );
            None
        }
    }
}

fn busy(writer: &Arc<ConnWriter>, id: u64, reason: &str) {
    obs::incr(names::SERVE_BUSY);
    let _ = writer.send(&Response {
        id,
        reply: Reply::Busy {
            reason: reason.to_string(),
        },
    });
}

fn submit_oracle(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    id: u64,
    design: &str,
    patterns: Vec<String>,
    single: bool,
) {
    let Some(design) = lookup(shared, writer, id, design) else {
        return;
    };
    let width = design.num_inputs();
    let mut decoded = Vec::with_capacity(patterns.len());
    for text in &patterns {
        let bits = match bits_from_string(text) {
            Ok(bits) => bits,
            Err(e) => {
                writer.send_error(id, ErrorCode::BadRequest, e);
                return;
            }
        };
        if bits.len() != width {
            writer.send_error(
                id,
                ErrorCode::WidthMismatch,
                format!(
                    "pattern has {} bits, design `{}` has {width} inputs",
                    bits.len(),
                    design.name
                ),
            );
            return;
        }
        decoded.push(bits);
    }
    if single && decoded.len() != 1 {
        writer.send_error(id, ErrorCode::BadRequest, "oracle takes one pattern".into());
        return;
    }
    if writer.inflight.load(Ordering::SeqCst) >= shared.config.max_inflight {
        busy(writer, id, "in-flight window full");
        return;
    }
    writer.inflight.fetch_add(1, Ordering::SeqCst);
    let reply_writer = Arc::clone(writer);
    let submitted = shared.batcher.submit(
        design,
        decoded,
        Box::new(move |rows| {
            let reply = if single {
                Reply::Oracle {
                    output: bits_to_string(&rows[0]),
                }
            } else {
                Reply::OracleBulk {
                    outputs: rows.iter().map(|r| bits_to_string(r)).collect(),
                }
            };
            let _ = reply_writer.send(&Response { id, reply });
            reply_writer.inflight.fetch_sub(1, Ordering::SeqCst);
        }),
    );
    if submitted == Submit::Busy {
        writer.inflight.fetch_sub(1, Ordering::SeqCst);
        busy(writer, id, "oracle queue full");
    }
}

// ---------------------------------------------------------------------
// Sweeps.
// ---------------------------------------------------------------------

/// The sweep's pattern generator: pattern `index` of a sweep is drawn
/// from splitmix64 streams keyed on `(seed, index)`, so any range of a
/// sweep can be regenerated independently (clients verifying a digest,
/// the load harness, chunked evaluation).
pub fn sweep_pattern(width: usize, index: u64, seed: u64) -> Vec<bool> {
    let mut state = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut bits = Vec::with_capacity(width);
    let mut word = 0u64;
    for i in 0..width {
        if i % 64 == 0 {
            word = splitmix64(&mut state);
        }
        bits.push(word >> (i % 64) & 1 != 0);
    }
    bits
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Evaluates a sweep in bounded chunks and returns the FNV-1a digest
/// (16 hex chars) over all output rows, each rendered as its bit-string
/// plus `\n`. Deterministic in `(design, count, seed)`.
pub fn run_sweep(design: &LoadedDesign, count: u64, seed: u64) -> String {
    const CHUNK: u64 = 4096;
    let width = design.num_inputs();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fnv = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut index = 0u64;
    while index < count {
        let n = CHUNK.min(count - index);
        let patterns: Vec<Vec<bool>> = (index..index + n)
            .map(|i| sweep_pattern(width, i, seed))
            .collect();
        let rows = design.eval_many(&patterns);
        obs::add(names::SERVE_ORACLE_PATTERNS, n);
        obs::add(
            names::SERVE_ORACLE_BATCHES,
            (n as usize).div_ceil(glitchlock_netlist::LANES) as u64,
        );
        for row in &rows {
            fnv(bits_to_string(row).as_bytes());
            fnv(b"\n");
        }
        index += n;
    }
    format!("{hash:016x}")
}

// ---------------------------------------------------------------------
// Supervised jobs.
// ---------------------------------------------------------------------

enum JobBody {
    Attack(AttackJob),
    Campaign {
        spec: String,
        shard: Option<(usize, usize)>,
    },
    Sleep {
        ms: u64,
    },
}

fn spawn_job(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, id: u64, body: JobBody) {
    if writer.inflight.load(Ordering::SeqCst) >= shared.config.max_inflight {
        busy(writer, id, "in-flight window full");
        return;
    }
    let max_jobs = shared.config.max_jobs;
    let claimed = shared
        .jobs_running
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < max_jobs).then_some(n + 1)
        });
    if claimed.is_err() {
        busy(writer, id, "job slots full");
        return;
    }
    obs::incr(names::SERVE_JOBS);
    writer.inflight.fetch_add(1, Ordering::SeqCst);
    let job_shared = Arc::clone(shared);
    let job_writer = Arc::clone(writer);
    let collector = Arc::clone(&shared.collector);
    let spawned = std::thread::Builder::new()
        .name("glk-serve-job".to_string())
        .spawn(move || {
            obs::scoped(&collector, || {
                let reply = supervise(&job_shared, body);
                let _ = job_writer.send(&Response { id, reply });
                job_writer.inflight.fetch_sub(1, Ordering::SeqCst);
                job_shared.jobs_running.fetch_sub(1, Ordering::SeqCst);
            });
        });
    if spawned.is_err() {
        obs::incr(names::SERVE_ERRORS);
        writer.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.jobs_running.fetch_sub(1, Ordering::SeqCst);
        writer.send_error(id, ErrorCode::ServerError, "spawn job thread".to_string());
    }
}

/// Runs a job body on its own thread under a deadline token, waiting at
/// most deadline + grace. An overrunning thread is cancelled, granted the
/// grace, then abandoned — the request answers `job-timeout` either way.
fn supervise(shared: &Arc<Shared>, body: JobBody) -> Reply {
    let timeout = shared.config.job_timeout;
    let token = CancelToken::with_deadline(timeout);
    let worker_token = token.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::Builder::new()
        .name("glk-serve-job-body".to_string())
        .spawn(move || {
            let _ = tx.send(run_job_body(body, &worker_token));
        });
    if worker.is_err() {
        return Reply::Error {
            code: ErrorCode::ServerError,
            message: "spawn job body thread".to_string(),
        };
    }
    match rx.recv_timeout(timeout + HARD_GRACE) {
        Ok((reply, snapshot)) => {
            obs::current().registry().merge_snapshot(&snapshot);
            reply
        }
        Err(_) => {
            token.cancel();
            match rx.recv_timeout(HARD_GRACE) {
                Ok((reply, snapshot)) => {
                    obs::current().registry().merge_snapshot(&snapshot);
                    reply
                }
                Err(_) => {
                    // Abandon the hung thread; it parks on a dead channel.
                    obs::incr(names::SERVE_JOB_TIMEOUTS);
                    Reply::Error {
                        code: ErrorCode::JobTimeout,
                        message: format!("job exceeded the {}s hard timeout", timeout.as_secs()),
                    }
                }
            }
        }
    }
}

type JobOutcome = (Reply, Vec<(String, obs::MetricValue)>);

fn run_job_body(body: JobBody, token: &CancelToken) -> JobOutcome {
    let collector = Arc::new(obs::Collector::new());
    let reply = obs::scoped(&collector, || match body {
        JobBody::Attack(attack) => run_attack(&attack, token),
        JobBody::Campaign { spec, shard } => run_campaign_job(&spec, shard),
        JobBody::Sleep { ms } => {
            // Deliberately ignores the token: this op exists to exercise
            // the hard-kill path with a genuinely unresponsive handler.
            std::thread::sleep(Duration::from_millis(ms));
            Reply::Slept
        }
    });
    let snapshot = collector.registry().snapshot();
    let reply = match reply {
        // Attack records carry their deterministic metrics, exactly as
        // campaign-run jobs do.
        Reply::Attack { mut record } => {
            record.metrics = deterministic_metrics(&snapshot);
            Reply::Attack { record }
        }
        other => other,
    };
    (reply, snapshot)
}

fn run_attack(attack: &AttackJob, token: &CancelToken) -> Reply {
    let bad = |message: String| Reply::Error {
        code: ErrorCode::BadRequest,
        message,
    };
    let Some(locker) = glitchlock_jobs::LockerKind::parse(&attack.locker) else {
        return bad(format!("unknown locker `{}`", attack.locker));
    };
    let Some(kind) = glitchlock_jobs::AttackKind::parse(&attack.attack) else {
        return bad(format!("unknown attack `{}`", attack.attack));
    };
    if let Err(e) = job::resolve_bench(&attack.bench) {
        return bad(e);
    }
    // `solver`/`encoder` name the one remaining profile and encoder:
    // accepted as no-ops, the removed values refused by name.
    for (name, tag) in [("solver", &attack.solver), ("encoder", &attack.encoder)] {
        if let Some(Err(e)) = tag.as_deref().map(|t| check_retired(name, t)) {
            return bad(e);
        }
    }
    let spec = JobSpec {
        bench: attack.bench.clone(),
        locker,
        width: attack.width,
        attack: kind,
        seed: attack.seed,
    };
    let tuning = Tuning {
        max_iterations: attack.max_iters,
        samples: attack.samples,
    };
    let record = job::execute(&spec, &tuning, token);
    if token.is_cancelled() {
        return Reply::Error {
            code: ErrorCode::Cancelled,
            message: "attack cancelled by the job deadline".to_string(),
        };
    }
    Reply::Attack { record }
}

fn run_campaign_job(spec_text: &str, shard: Option<(usize, usize)>) -> Reply {
    let spec = match CampaignSpec::parse(spec_text) {
        Ok(spec) => spec,
        Err(e) => {
            return Reply::Error {
                code: ErrorCode::BadRequest,
                message: e,
            }
        }
    };
    let journal_path = std::env::temp_dir().join(format!(
        "glk-serve-campaign-{}-{:x}.jsonl",
        std::process::id(),
        glitchlock_jobs::fnv1a64(spec_text) ^ shard.map_or(0, |(i, n)| (i as u64) << 32 | n as u64)
    ));
    let result = run_campaign(&CampaignConfig {
        spec: spec.clone(),
        jobs: 1,
        journal_path: journal_path.clone(),
        resume: false,
        halt_after: None,
        shard,
    });
    let _ = std::fs::remove_file(&journal_path);
    match result {
        Ok(result) => Reply::Campaign {
            spec_hash: spec.hash(),
            records: result.records,
        },
        Err(e) => Reply::Error {
            code: ErrorCode::ServerError,
            message: e,
        },
    }
}
