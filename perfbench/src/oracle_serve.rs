//! `oracle_serve`: a real `glk serve` daemon process on s1238, driven over
//! TCP by this process with at most two threads and two connections.
//!
//! Every pass replays the nominal open-loop mix: Poisson arrivals of
//! single-pattern `oracle` requests at 500/s and 256-pattern `oracle-bulk`
//! requests at 40/s, each class on its own connection, latency timed from
//! each request's due time. Traced runs add a rate ladder per class and
//! offline replays that split a bulk request's cost between codec and
//! packed eval.

use crate::harness::{self, Ctx, Outcome};
use crate::stats::{self, Ratio, Timing};
use glitchlock_netlist::Logic;
use glitchlock_serve::proto::bits_to_string;
use glitchlock_serve::{
    read_frame, run_sweep, sweep_pattern, write_frame, LoadedDesign, Op, Reply, Request, Response,
    DEFAULT_MAX_FRAME,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The served design.
const DESIGN: &str = "s1238";
/// Patterns per bulk request.
const BULK_PATTERNS: usize = 256;
/// Nominal open-loop rates (requests/s) and how long one pass of them
/// runs. A lone single request waits out the batcher's flush deadline; a
/// bulk one fills whole 64-lane batches and is flushed at once, so its
/// time is codec and eval.
const SINGLE_RATE: f64 = 500.0;
const BULK_RATE: f64 = 40.0;
const NOMINAL_SECS: f64 = 4.0;
/// Request ids of pass `i` start above `(PASS_IDS + i) << 32`; the rate
/// ladder's steps use lower blocks.
const PASS_IDS: u64 = 64;
/// Latency limits, judged at the highest percentile up to p99 that the
/// samples support (see [`stats::reportable_level`]).
const SINGLE_LIMIT_MS: f64 = 20.0;
const BULK_LIMIT_MS: f64 = 100.0;
const TAIL_CAP: f64 = 99.0;
/// Rate ladders (requests/s) near each class's knee.
const SINGLE_LADDER: [f64; 6] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0];
const BULK_LADDER: [f64; 5] = [80.0, 160.0, 320.0, 480.0, 640.0];
/// Daemon set-ups per timed batch (a few ms each).
const SETUP_BATCH: usize = 4;
/// Patterns in the server-side sweep probe.
const SWEEP_COUNT: u64 = 200_000;

/// A running `glk serve` child. Dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(glk: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(glk)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", glk.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        read.map_err(|e| format!("reading the daemon's address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("serve: listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// Asks the daemon to stop and waits for it; kills it after 5 s.
    fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut s| call(&mut s, Op::Shutdown).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not stop within 5 s of a shutdown request".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn send(stream: &mut TcpStream, id: u64, op: Op) -> Result<(), String> {
    write_frame(stream, &Request { id, op }.encode()).map_err(|e| format!("send: {e}"))
}

fn recv(stream: &mut TcpStream) -> Result<Response, String> {
    let payload = read_frame(stream, DEFAULT_MAX_FRAME).map_err(|e| format!("recv: {e}"))?;
    Response::decode(&payload)
}

/// Request id of one-off calls; open-loop ids stay below it, and replies
/// to other requests still in flight are skipped.
const CALL_ID: u64 = 1 << 50;

fn call(stream: &mut TcpStream, op: Op) -> Result<Reply, String> {
    send(stream, CALL_ID, op)?;
    loop {
        let resp = recv(stream)?;
        if resp.id == CALL_ID {
            return Ok(resp.reply);
        }
    }
}

/// The inputs of one run, with the outputs the scalar evaluator gives
/// them: a referee independent of the packed evaluator the daemon uses.
struct Inputs {
    single: Vec<String>,
    single_expect: Vec<String>,
    bulk: Vec<Vec<String>>,
    bulk_expect: Vec<Vec<String>>,
    bulk_bits: Vec<Vec<bool>>,
}

fn inputs(ctx: &Ctx, design: &LoadedDesign) -> Inputs {
    let width = design.num_inputs();
    let patterns = |what: &str, n: usize| -> Vec<Vec<bool>> {
        let seed = ctx.derive(what);
        (0..n as u64)
            .map(|i| sweep_pattern(width, i, seed))
            .collect()
    };
    let scalar = |p: &Vec<bool>| -> String {
        let values: Vec<Logic> = p.iter().map(|&b| Logic::from_bool(b)).collect();
        design
            .view
            .eval(&design.netlist, &values)
            .iter()
            .map(|v| if v.to_bool() == Some(true) { '1' } else { '0' })
            .collect()
    };
    let single_bits = patterns("oracle_serve/single", nominal_count(Class::Single));
    let bulk_bits = patterns(
        "oracle_serve/bulk",
        nominal_count(Class::Bulk) * BULK_PATTERNS,
    );
    let chunked = |rows: Vec<String>| -> Vec<Vec<String>> {
        rows.chunks(BULK_PATTERNS).map(<[String]>::to_vec).collect()
    };
    Inputs {
        single: single_bits.iter().map(|p| bits_to_string(p)).collect(),
        single_expect: single_bits.iter().map(scalar).collect(),
        bulk: chunked(bulk_bits.iter().map(|p| bits_to_string(p)).collect()),
        bulk_expect: chunked(bulk_bits.iter().map(scalar).collect()),
        bulk_bits,
    }
}

/// Which traffic class a request belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Single,
    Bulk,
}

impl Class {
    fn op(self, inp: &Inputs, ix: usize) -> Op {
        match self {
            Class::Single => Op::Oracle {
                design: DESIGN.to_string(),
                pattern: inp.single[ix % inp.single.len()].clone(),
            },
            Class::Bulk => Op::OracleBulk {
                design: DESIGN.to_string(),
                patterns: inp.bulk[ix % inp.bulk.len()].clone(),
            },
        }
    }

    fn patterns(self) -> u64 {
        match self {
            Class::Single => 1,
            Class::Bulk => BULK_PATTERNS as u64,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::Single => "single",
            Class::Bulk => "bulk",
        }
    }

    /// Nominal requests per second.
    fn rate(self) -> f64 {
        match self {
            Class::Single => SINGLE_RATE,
            Class::Bulk => BULK_RATE,
        }
    }

    fn p50_metric(self) -> &'static str {
        match self {
            Class::Single => "serve.single_p50_ms",
            Class::Bulk => "serve.bulk_p50_ms",
        }
    }

    /// The per-layer metric for this class's tail at `level`. Bulk has
    /// none at p99: its 160 nominal samples leave 1.6 beyond it.
    fn tail_metric(self, level: f64) -> Option<&'static str> {
        match (self, level as u32) {
            (Class::Single, 99) => Some("serve.single_p99_ms"),
            (Class::Single, 90) => Some("serve.single_p90_ms"),
            (Class::Bulk, 90) => Some("serve.bulk_p90_ms"),
            _ => None,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Single => "serve.oracle",
            Class::Bulk => "serve.oracle_bulk",
        }
    }
}

/// Requests of `class` in one pass of the nominal mix.
fn nominal_count(class: Class) -> usize {
    (class.rate() * NOMINAL_SECS) as usize
}

/// The nominal mix's schedule, the same for every pass of a run.
fn nominal_plan(ctx: &Ctx) -> [(Class, Vec<f64>); 2] {
    [Class::Single, Class::Bulk].map(|class| {
        let seed = ctx.derive(&format!("nominal/{}", class.name()));
        let dues = stats::poisson_schedule(nominal_count(class), class.rate(), seed);
        (class, dues)
    })
}

/// How one reply went.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Verdict {
    Ok,
    Wrong,
    Refused,
}

fn judge(class: Class, inp: &Inputs, ix: usize, reply: &Reply) -> Verdict {
    match (class, reply) {
        (Class::Single, Reply::Oracle { output }) => {
            if *output == inp.single_expect[ix % inp.single.len()] {
                Verdict::Ok
            } else {
                Verdict::Wrong
            }
        }
        (Class::Bulk, Reply::OracleBulk { outputs }) => {
            if *outputs == inp.bulk_expect[ix % inp.bulk.len()] {
                Verdict::Ok
            } else {
                Verdict::Wrong
            }
        }
        (_, Reply::Busy { .. } | Reply::Error { .. }) => Verdict::Refused,
        _ => Verdict::Wrong,
    }
}

/// Open-loop record of one class: timings plus the codec time spent on it.
struct OpenClass {
    /// The instant the schedule's times count from.
    start: Instant,
    timings: Vec<Timing>,
    verdicts: Vec<Option<Verdict>>,
    encode_ns: u64,
    decode_ns: u64,
    requests: Vec<Vec<u8>>,
    responses: Vec<Vec<u8>>,
}

/// Sends each class on its own connection at its Poisson schedule from a
/// sender thread while a receiver thread collects replies: two threads,
/// two connections, latency counted from each request's due time.
/// Request ids start above `id_base`, so late replies to an earlier phase
/// are recognised and skipped. The receiver keeps reading until every
/// reply is in or 3 s after the last send, so a server that falls behind
/// is never left blocked on a full socket while requests are still sent.
fn open_loop(
    conns: &mut [TcpStream; 2],
    plan: &[(Class, Vec<f64>)],
    inp: &Inputs,
    keep_payloads: bool,
    id_base: u64,
) -> Result<Vec<OpenClass>, String> {
    let writers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.try_clone().map_err(|e| format!("clone: {e}")))
        .collect::<Result<_, _>>()?;
    // Merge both schedules into one send order.
    let mut order: Vec<(f64, usize, usize)> = plan
        .iter()
        .enumerate()
        .flat_map(|(c, (_, dues))| dues.iter().enumerate().map(move |(i, &d)| (d, c, i)))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let horizon = order.last().map_or(0.0, |o| o.0);
    let expected: Vec<usize> = plan.iter().map(|(_, d)| d.len()).collect();
    let start = Instant::now() + Duration::from_millis(5);
    let sending = AtomicBool::new(true);

    let (sent, received) = std::thread::scope(|s| {
        let sending = &sending;
        let sender = s.spawn(move || -> Result<_, String> {
            // Whatever happens, tell the receiver when sending stops.
            struct Stopped<'a>(&'a AtomicBool);
            impl Drop for Stopped<'_> {
                fn drop(&mut self) {
                    self.0.store(false, Ordering::SeqCst);
                }
            }
            let _stopped = Stopped(sending);
            let mut writers = writers;
            let mut sent: Vec<Vec<f64>> = plan.iter().map(|(_, d)| vec![0.0; d.len()]).collect();
            let mut encode_ns = vec![0u64; plan.len()];
            let mut payloads: Vec<Vec<Vec<u8>>> = vec![Vec::new(); plan.len()];
            for &(due, c, i) in &order {
                let due_at = start + Duration::from_secs_f64(due);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let class = plan[c].0;
                let request = Request {
                    id: id_base + i as u64 + 1,
                    op: class.op(inp, i),
                };
                let e0 = Instant::now();
                let bytes = request.encode();
                encode_ns[c] += e0.elapsed().as_nanos() as u64;
                sent[c][i] = start.elapsed().as_secs_f64();
                write_frame(&mut writers[c], &bytes).map_err(|e| format!("send: {e}"))?;
                if keep_payloads && class == Class::Bulk {
                    payloads[c].push(bytes);
                }
            }
            Ok((sent, encode_ns, payloads))
        });
        let receiver = s.spawn(|| -> Result<_, String> {
            let mut deadline = start + Duration::from_secs_f64(horizon + 3.0);
            let mut done: Vec<Vec<Option<(f64, Verdict)>>> =
                expected.iter().map(|&n| vec![None; n]).collect();
            let mut decode_ns = vec![0u64; plan.len()];
            let mut payloads: Vec<Vec<Vec<u8>>> = vec![Vec::new(); plan.len()];
            let mut left: usize = expected.iter().sum();
            let fds: Vec<i32> = conns.iter().map(|c| c.as_raw_fd()).collect();
            loop {
                if sending.load(Ordering::SeqCst) {
                    deadline = deadline.max(Instant::now() + Duration::from_secs(3));
                } else if left == 0 || Instant::now() >= deadline {
                    break;
                }
                for (c, ready) in poll_readable(&fds, 20).into_iter().enumerate() {
                    if !ready {
                        continue;
                    }
                    let payload = read_frame(&mut conns[c], DEFAULT_MAX_FRAME)
                        .map_err(|e| format!("recv: {e}"))?;
                    let at = start.elapsed().as_secs_f64();
                    let d0 = Instant::now();
                    let resp = Response::decode(&payload)?;
                    decode_ns[c] += d0.elapsed().as_nanos() as u64;
                    let Some(ix) = resp
                        .id
                        .checked_sub(id_base + 1)
                        .and_then(|ix| usize::try_from(ix).ok())
                        .filter(|&ix| ix < expected[c])
                    else {
                        continue;
                    };
                    if done[c][ix].is_none() {
                        left -= 1;
                    }
                    done[c][ix] = Some((at, judge(plan[c].0, inp, ix, &resp.reply)));
                    if keep_payloads && plan[c].0 == Class::Bulk {
                        payloads[c].push(payload);
                    }
                }
            }
            Ok((done, decode_ns, payloads))
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let (sent, encode_ns, req_payloads) = sent?;
    let (done, decode_ns, resp_payloads) = received?;
    Ok(plan
        .iter()
        .enumerate()
        .map(|(c, (_, dues))| OpenClass {
            start,
            timings: dues
                .iter()
                .zip(&sent[c])
                .zip(&done[c])
                .map(|((&due, &sent), done)| Timing {
                    due,
                    sent,
                    done: done.map(|d| d.0),
                })
                .collect(),
            verdicts: done[c].iter().map(|d| d.map(|d| d.1)).collect(),
            encode_ns: encode_ns[c],
            decode_ns: decode_ns[c],
            requests: req_payloads[c].clone(),
            responses: resp_payloads[c].clone(),
        })
        .collect())
}

/// `poll(2)` for readability on `fds`, waiting at most `timeout_ms`.
fn poll_readable(fds: &[i32], timeout_ms: i32) -> Vec<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `pfds` is an exclusively borrowed, initialised array of
    // `pfds.len()` `struct pollfd`s (same layout: int, short, short) that
    // outlives the call; poll(2) only writes their `revents` fields.
    let n = unsafe {
        poll(
            pfds.as_mut_ptr(),
            pfds.len() as std::os::raw::c_ulong,
            timeout_ms,
        )
    };
    if n <= 0 {
        return vec![false; fds.len()];
    }
    pfds.iter().map(|p| p.revents != 0).collect()
}

/// What one open-loop phase showed for one class.
struct ClassResult {
    answered: usize,
    refused: usize,
    wrong: usize,
    missing: usize,
    latencies: Vec<f64>,
    late: Vec<f64>,
    backlog: Vec<usize>,
    elapsed: f64,
}

fn summarize(oc: &OpenClass) -> ClassResult {
    let count = |v: Verdict| oc.verdicts.iter().filter(|x| **x == Some(v)).count();
    let last_done = oc
        .timings
        .iter()
        .filter_map(|t| t.done)
        .fold(0.0f64, f64::max);
    let first_due = oc.timings.first().map_or(0.0, |t| t.due);
    ClassResult {
        answered: count(Verdict::Ok),
        refused: count(Verdict::Refused),
        wrong: count(Verdict::Wrong),
        missing: oc.verdicts.iter().filter(|v| v.is_none()).count(),
        latencies: stats::latencies_ms(&oc.timings),
        late: stats::lateness_ms(&oc.timings),
        backlog: stats::backlog_at_sends(&oc.timings),
        elapsed: last_done - first_due,
    }
}

impl ClassResult {
    /// The percentile the step is judged at (see
    /// [`stats::reportable_level`]), if any.
    fn level(&self) -> Option<f64> {
        stats::reportable_level(&self.latencies, TAIL_CAP)
    }

    /// The step's verdict against a latency limit: a refused, wrong or
    /// missing reply misses the limit, as does a growing backlog.
    fn meets(&self, limit_ms: f64) -> bool {
        let clean = self.refused == 0 && self.wrong == 0 && self.missing == 0;
        let tail = self
            .level()
            .and_then(|l| stats::percentile(&self.latencies, l).ok())
            .unwrap_or(f64::INFINITY);
        clean && tail <= limit_ms && !stats::backlog_grows(&self.backlog, 8)
    }
}

fn metrics(stream: &mut TcpStream) -> Result<BTreeMap<String, f64>, String> {
    match call(stream, Op::Metrics)? {
        Reply::Metrics { metrics } => Ok(metrics),
        other => Err(format!("metrics: unexpected reply {other:?}")),
    }
}

fn delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let glk = ctx
        .glk
        .clone()
        .ok_or("oracle_serve needs --glk (the glk executable)")?;
    let mut out = Outcome::default();
    let profile = glitchlock_circuits::profile_by_name(DESIGN).expect("s1238 is a profile");
    let local = LoadedDesign::new(DESIGN, glitchlock_circuits::generate(&profile))?;
    let inp = inputs(ctx, &local);

    // Set-up: daemon start and design load; earlier daemons are stopped
    // outside the timing.
    let daemon = harness::timed_setups(
        &mut out,
        SETUP_BATCH,
        || {
            let (daemon, started) = harness::timed(|| Daemon::start(&glk))?;
            // Connecting (up to the first reply) is not timed: the daemon's
            // accept loop polls every 25 ms, so a first connection is served
            // after almost nothing or a whole poll depending on a race with
            // the loop's first poll, and set-up time would jump between
            // those two modes from run to run.
            let mut c = daemon.connect()?;
            call(&mut c, Op::Ping)?;
            let load = Op::LoadBench {
                name: DESIGN.to_string(),
            };
            let (reply, loaded) = harness::timed(|| call(&mut c, load))?;
            match reply {
                Reply::Loaded { inputs, .. } if inputs == local.num_inputs() => {
                    Ok((daemon, started + loaded))
                }
                other => Err(format!("load-bench {DESIGN}: unexpected reply {other:?}")),
            }
        },
        Daemon::stop,
    )?;
    let result = drive(ctx, &daemon, &local, &inp, &mut out);
    out.peak_rss_mb = harness::peak_rss_mb(&daemon.pid());
    let stopped = daemon.stop();
    result?;
    stopped?;
    Ok(out)
}

fn drive(
    ctx: &Ctx,
    daemon: &Daemon,
    local: &LoadedDesign,
    inp: &Inputs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut conns = [daemon.connect()?, daemon.connect()?];
    let pid = daemon.pid();
    let plan = nominal_plan(ctx);
    let before = metrics(&mut conns[0])?;
    // Every pass's result per class, and the payloads of a traced pass.
    let mut results: [Vec<ClassResult>; 2] = [Vec::new(), Vec::new()];
    let mut recorded: Option<Vec<OpenClass>> = None;
    let mut pass_ix = 0u64;
    harness::run_passes_on(ctx, out, &pid, |t, out| {
        let id_base = (PASS_IDS + pass_ix) << 32;
        pass_ix += 1;
        let classes = open_loop(&mut conns, &plan, inp, t.on(), id_base)?;
        let mut counters = BTreeMap::new();
        for (c, oc) in classes.iter().enumerate() {
            let class = plan[c].0;
            let r = summarize(oc);
            out.attempted += oc.timings.len() as u64;
            out.failed += (r.refused + r.wrong + r.missing) as u64;
            let name = class.name();
            counters.insert(format!("served.{name}.ok"), r.answered as u64);
            counters.insert(
                format!("served.{name}.patterns"),
                r.answered as u64 * class.patterns(),
            );
            for (i, timing) in oc.timings.iter().enumerate() {
                if let Some(done) = timing.done {
                    let at = |secs: f64| oc.start + Duration::from_secs_f64(secs);
                    let id = (id_base + i as u64 + 1).to_string();
                    t.record(class.span(), &id, at(timing.due), at(done));
                }
            }
            results[c].push(r);
        }
        if t.on() {
            recorded = Some(classes);
        }
        Ok(counters)
    })?;
    let after = metrics(&mut conns[0])?;
    for (class, rs) in [Class::Single, Class::Bulk].iter().zip(&results) {
        let wrong: usize = rs.iter().map(|r| r.wrong).sum();
        let missing: usize = rs.iter().map(|r| r.missing).sum();
        out.check(
            format!(
                "every nominal {} reply arrives and equals scalar eval",
                class.name()
            ),
            wrong == 0 && missing == 0,
            format!("{wrong} wrong, {missing} missing"),
        );
    }

    // Server-side sweep: its digest must equal a local `run_sweep`. The
    // wire carries numbers as JSON doubles, so the seed stays below 2^53.
    let sweep_seed = ctx.derive("oracle_serve/sweep") & 0xffff_ffff;
    let t0 = Instant::now();
    let sweep = call(
        &mut conns[0],
        Op::OracleSweep {
            design: DESIGN.to_string(),
            count: SWEEP_COUNT,
            seed: sweep_seed,
        },
    )?;
    let sweep_s = t0.elapsed().as_secs_f64();
    out.attempted += 1;
    let local_digest = run_sweep(local, SWEEP_COUNT, sweep_seed);
    match &sweep {
        Reply::Sweep { digest, count } => out.check(
            "server sweep digest equals local run_sweep",
            *digest == local_digest && *count == SWEEP_COUNT,
            format!("server {digest} vs local {local_digest}"),
        ),
        other => {
            out.failed += 1;
            out.check("server sweep answers", false, format!("{other:?}"));
        }
    }
    if ctx.trace {
        out.set("serve.sweep_pps", SWEEP_COUNT as f64 / sweep_s);
        nominal_metrics(out, &results, &before, &after)?;
        let recorded = recorded.ok_or("a traced run records a pass")?;
        codec_split(out, local, inp, &recorded[1])?;
        ladders(ctx, &mut conns, inp, out)?;
    }
    Ok(())
}

/// Latency, generator and daemon metrics over every pass of the nominal
/// mix; `before` and `after` are the daemon's metrics around the passes.
fn nominal_metrics(
    out: &mut Outcome,
    results: &[Vec<ClassResult>; 2],
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let mut late = Vec::new();
    let mut backlog = 0;
    for (class, rs) in [Class::Single, Class::Bulk].into_iter().zip(results) {
        let latencies: Vec<f64> = rs.iter().flat_map(|r| r.latencies.clone()).collect();
        late.extend(rs.iter().flat_map(|r| r.late.clone()));
        backlog = rs
            .iter()
            .flat_map(|r| r.backlog.iter().copied())
            .fold(backlog, usize::max);
        out.set(class.p50_metric(), stats::percentile(&latencies, 50.0)?);
        let level = stats::reportable_level(&latencies, TAIL_CAP);
        let tail = level.and_then(|l| class.tail_metric(l).map(|m| (l, m)));
        let how = match tail {
            Some((l, metric)) => {
                out.set(metric, stats::percentile(&latencies, l)?);
                format!("tail reported at p{l} as {metric}")
            }
            None => format!(
                "no tail reported: the level with ten samples beyond it that repeats within a tenth is {}",
                level.map_or("none".to_string(), |l| format!("p{l}"))
            ),
        };
        out.notes.push(format!(
            "nominal {}: {} latency samples over {} passes, {how}",
            class.name(),
            latencies.len(),
            rs.len()
        ));
    }
    out.set("bench.gen_late_p99_ms", stats::percentile(&late, 99.0)?);
    out.set("bench.backlog_max", backlog as f64);
    out.set_ratio(
        "serve.patterns_per_batch",
        Ratio::new(
            delta(after, before, "serve.oracle.patterns"),
            delta(after, before, "serve.oracle.batches"),
        ),
    );
    out.set(
        "serve.oracle.coalesced",
        delta(after, before, "serve.oracle.coalesced"),
    );
    out.set("serve.busy", delta(after, before, "serve.busy"));
    out.set("serve.errors", delta(after, before, "serve.errors"));
    Ok(())
}

/// Splits a bulk request's cost: client codec as the generator timed it
/// in one pass, server codec replayed offline on that pass's payloads,
/// and packed eval of the same patterns.
fn codec_split(
    out: &mut Outcome,
    local: &LoadedDesign,
    inp: &Inputs,
    bulk: &OpenClass,
) -> Result<(), String> {
    let n = bulk.requests.len().max(1) as f64;
    out.set(
        "serve.client_codec_us",
        (bulk.encode_ns + bulk.decode_ns) as f64 / 1e3 / n,
    );
    let replies = bulk
        .responses
        .iter()
        .map(|r| Response::decode(r))
        .collect::<Result<Vec<_>, _>>()?;
    let s0 = Instant::now();
    for (req, reply) in bulk.requests.iter().zip(&replies) {
        std::hint::black_box(Request::decode(std::hint::black_box(req))?);
        std::hint::black_box(reply.encode());
    }
    let pairs = bulk.requests.len().min(replies.len()).max(1) as f64;
    out.set(
        "serve.server_codec_us",
        s0.elapsed().as_secs_f64() * 1e6 / pairs,
    );
    let e0 = Instant::now();
    let rows = local.eval_many(std::hint::black_box(&inp.bulk_bits));
    std::hint::black_box(rows);
    out.set(
        "netlist.eval_ns_per_pattern",
        e0.elapsed().as_secs_f64() * 1e9 / inp.bulk_bits.len() as f64,
    );
    Ok(())
}

/// Rate ladders: the highest step that meets its limit. Replies past the
/// knee may be refused, but none may be wrong.
fn ladders(
    ctx: &Ctx,
    conns: &mut [TcpStream; 2],
    inp: &Inputs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut wrong = 0;
    let (rps, w) = ladder(ctx, conns, inp, out, Class::Single, &SINGLE_LADDER)?;
    out.set("serve.max_single_rps", rps);
    wrong += w;
    let (bulk_rps, w) = ladder(ctx, conns, inp, out, Class::Bulk, &BULK_LADDER)?;
    out.set("serve.max_bulk_pps", bulk_rps * BULK_PATTERNS as f64);
    wrong += w;
    out.check(
        "every rate-ladder reply equals scalar eval",
        wrong == 0,
        format!("{wrong} replies differ"),
    );
    Ok(())
}

/// Climbs `rates` for one class, each step at least 1 s and enough
/// samples for the class's percentile, until a step misses its limit.
/// Returns the answered requests/s of the highest step that met it (0
/// if none did) and the number of wrong replies seen.
fn ladder(
    ctx: &Ctx,
    conns: &mut [TcpStream; 2],
    inp: &Inputs,
    out: &mut Outcome,
    class: Class,
    rates: &[f64],
) -> Result<(f64, usize), String> {
    let (limit, min_samples, ids) = match class {
        Class::Single => (SINGLE_LIMIT_MS, 1000.0, 1u64),
        Class::Bulk => (BULK_LIMIT_MS, 100.0, 16u64),
    };
    let mut best = 0.0;
    let mut wrong = 0;
    for (i, &rate) in rates.iter().enumerate() {
        let n = rate.max(min_samples) as usize;
        let seed = ctx.derive(&format!("ladder/{}/{i}", class.name()));
        let plan = [(class, stats::poisson_schedule(n, rate, seed))];
        let id_base = (ids + i as u64) << 32;
        let r = summarize(&open_loop(conns, &plan, inp, false, id_base)?[0]);
        wrong += r.wrong;
        let ok = r.meets(limit);
        out.notes.push(ladder_note(class.name(), rate, &r, ok));
        if !ok {
            break;
        }
        best = r.answered as f64 / r.elapsed;
    }
    Ok((best, wrong))
}

fn ladder_note(class: &str, rate: f64, r: &ClassResult, ok: bool) -> String {
    let late_level = stats::highest_percentile(r.late.len()).unwrap_or(50.0);
    let tail = match r.level() {
        Some(l) => format!(
            "p{l} {:.3} ms",
            stats::percentile(&r.latencies, l).unwrap_or(f64::NAN)
        ),
        None => "too few samples".to_string(),
    };
    format!(
        "ladder {class} {rate:>6} req/s: {} answered, {} refused, {tail}, late p{late_level} {:.3} ms, backlog max {} -> {}",
        r.answered,
        r.refused,
        stats::percentile(&r.late, late_level).unwrap_or(f64::NAN),
        r.backlog.iter().max().unwrap_or(&0),
        if ok { "meets" } else { "misses" }
    )
}
