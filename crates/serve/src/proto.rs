//! The request/response vocabulary and its JSON encoding.
//!
//! Every message is one canonical-JSON object carried in one frame. A
//! request is `{"id": N, "op": "...", ...}`; the response echoes the id:
//! `{"id": N, "reply": "...", ...}`. Ids are chosen by the client and only
//! need to be unique among its own in-flight requests — the server may
//! answer out of order (oracle batches and jobs retire when they retire),
//! so the id is how a pipelined client reunites answers with questions.
//!
//! Oracle patterns and outputs travel as bit-strings (`"0101"`, one char
//! per input, index 0 first) — compact, unambiguous, and immune to JSON's
//! number semantics. Every type here round-trips `to_json` ↔ `from_json`
//! exactly; the property tests in the workspace test tree lean on that.

use glitchlock_jobs::JobRecord;
use glitchlock_obs::json::Value;
use std::collections::BTreeMap;

/// Why a request was refused. The code is machine-readable; the message
/// beside it is for humans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was unreadable (torn mid-frame).
    BadFrame,
    /// The length header exceeded the server's frame cap.
    FrameTooLarge,
    /// The payload was not valid JSON.
    BadJson,
    /// The JSON was well-formed but not a valid request.
    BadRequest,
    /// The named design is not loaded on this connection's server.
    UnknownDesign,
    /// A pattern's width does not match the design's input count.
    WidthMismatch,
    /// The request was cancelled (server shutting down).
    Cancelled,
    /// A lock/attack job hit the server's hard-kill timeout.
    JobTimeout,
    /// A debug-only op (`sleep`) on a server without `--allow-debug`.
    DebugDisabled,
    /// An internal failure (journal I/O, poisoned state, ...).
    ServerError,
}

impl ErrorCode {
    /// The wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownDesign => "unknown-design",
            ErrorCode::WidthMismatch => "width-mismatch",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::JobTimeout => "job-timeout",
            ErrorCode::DebugDisabled => "debug-disabled",
            ErrorCode::ServerError => "server-error",
        }
    }

    /// Parses a wire tag.
    pub fn parse(tag: &str) -> Option<ErrorCode> {
        Some(match tag {
            "bad-frame" => ErrorCode::BadFrame,
            "frame-too-large" => ErrorCode::FrameTooLarge,
            "bad-json" => ErrorCode::BadJson,
            "bad-request" => ErrorCode::BadRequest,
            "unknown-design" => ErrorCode::UnknownDesign,
            "width-mismatch" => ErrorCode::WidthMismatch,
            "cancelled" => ErrorCode::Cancelled,
            "job-timeout" => ErrorCode::JobTimeout,
            "debug-disabled" => ErrorCode::DebugDisabled,
            "server-error" => ErrorCode::ServerError,
            _ => return None,
        })
    }
}

/// One attack-job request: a campaign cell plus its tuning, all explicit
/// so the job is a pure function of the request.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackJob {
    /// Benchmark name (`s27`, `c17`, or a generator profile).
    pub bench: String,
    /// Locker tag (`xor`, `mux`, `sarlock`, `antisat`, `tdk`, `gk`).
    pub locker: String,
    /// Key width (GK count for `gk`).
    pub width: usize,
    /// Attack tag (`sat`, `appsat`, `seqsat`, `removal`, `enhanced`, `scan`).
    pub attack: String,
    /// Job seed.
    pub seed: u64,
    /// Iteration cap for the iterative attacks.
    pub max_iters: usize,
    /// Sample count for skew scans and verification probes.
    pub samples: usize,
    /// Retired CDCL profile choice: `modern` (the only profile) or
    /// absent; `legacy` is refused as removed.
    pub solver: Option<String>,
    /// Retired CNF encoder choice: `aig` (the only encoder) or absent;
    /// `flat` is refused as removed.
    pub encoder: Option<String>,
}

/// A request's operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Load a built-in benchmark / generator profile under its own name.
    LoadBench {
        /// Benchmark name.
        name: String,
    },
    /// Load `.bench` text under a caller-chosen design name.
    LoadNetlist {
        /// Design name to register.
        name: String,
        /// `.bench` source text.
        bench: String,
    },
    /// One oracle query against a loaded design.
    Oracle {
        /// Loaded design name.
        design: String,
        /// Input bit-string, one char per input.
        pattern: String,
    },
    /// A batch of oracle queries, answered in pattern order.
    OracleBulk {
        /// Loaded design name.
        design: String,
        /// Input bit-strings.
        patterns: Vec<String>,
    },
    /// Server-side pattern sweep: the server generates `count` seeded
    /// pseudorandom patterns, evaluates them, and answers with a digest
    /// of all response rows — a load/determinism probe whose socket
    /// traffic is O(1) regardless of `count`.
    OracleSweep {
        /// Loaded design name.
        design: String,
        /// Patterns to generate and evaluate.
        count: u64,
        /// Sweep PRNG seed.
        seed: u64,
    },
    /// Run one lock+attack job.
    Attack(AttackJob),
    /// Run a campaign spec (optionally one shard of it) and stream back
    /// the retired records.
    Campaign {
        /// Spec text (the `glk campaign` format).
        spec: String,
        /// Optional `(index, count)` shard selector.
        shard: Option<(usize, usize)>,
    },
    /// Snapshot the server's deterministic metrics.
    Metrics,
    /// Debug-only: hold this request's handler for `ms` milliseconds.
    /// Exists to exercise the hard-kill timeout path; refused unless the
    /// server was started with debug ops enabled.
    Sleep {
        /// Milliseconds to hold.
        ms: u64,
    },
    /// Ask the server to stop accepting and drain.
    Shutdown,
}

/// A framed request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

/// A response body.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// `Ping` answer.
    Pong,
    /// A design is loaded and ready for queries.
    Loaded {
        /// Registered design name.
        design: String,
        /// Oracle input width (primary + pseudo inputs).
        inputs: usize,
        /// Oracle output width (primary + pseudo outputs).
        outputs: usize,
    },
    /// Single oracle answer.
    Oracle {
        /// Output bit-string.
        output: String,
    },
    /// Bulk oracle answers, in pattern order.
    OracleBulk {
        /// Output bit-strings.
        outputs: Vec<String>,
    },
    /// Sweep digest.
    Sweep {
        /// Patterns evaluated.
        count: u64,
        /// FNV-1a digest (16 hex chars) over all output rows in order.
        digest: String,
    },
    /// Attack-job record.
    Attack {
        /// The retired record (wall-clock zeroed: responses are
        /// deterministic in the request).
        record: JobRecord,
    },
    /// Campaign records in spec-expansion order.
    Campaign {
        /// The spec's canonical fingerprint.
        spec_hash: String,
        /// Retired records (shard-filtered when a shard was requested).
        records: Vec<JobRecord>,
    },
    /// Deterministic metrics snapshot.
    Metrics {
        /// Counter/gauge values (throughput gauges and histograms excluded).
        metrics: BTreeMap<String, f64>,
    },
    /// The connection's in-flight window (or the server's job slots) is
    /// full; retry after draining an outstanding response.
    Busy {
        /// Which limit was hit.
        reason: String,
    },
    /// `Sleep` answer.
    Slept,
    /// `Shutdown` acknowledged; the server will close listeners and drain.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A framed response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// The body.
    pub reply: Reply,
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

fn str_v(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn num_v(n: u64) -> Value {
    Value::Num(n as f64)
}

fn get_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key).and_then(Value::as_num) {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        Some(_) => Err(format!("`{key}` is not a non-negative integer")),
        None => Err(format!("missing number `{key}`")),
    }
}

fn get_str_list(v: &Value, key: &str) -> Result<Vec<String>, String> {
    let Some(Value::Arr(items)) = v.get(key) else {
        return Err(format!("missing array `{key}`"));
    };
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` holds a non-string"))
        })
        .collect()
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("`{key}` is not a string")),
    }
}

impl Request {
    /// Renders the request as canonical JSON.
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(&str, Value)> = vec![("id", num_v(self.id))];
        match &self.op {
            Op::Ping => pairs.push(("op", str_v("ping"))),
            Op::LoadBench { name } => {
                pairs.push(("op", str_v("load-bench")));
                pairs.push(("name", str_v(name)));
            }
            Op::LoadNetlist { name, bench } => {
                pairs.push(("op", str_v("load-netlist")));
                pairs.push(("name", str_v(name)));
                pairs.push(("bench", str_v(bench)));
            }
            Op::Oracle { design, pattern } => {
                pairs.push(("op", str_v("oracle")));
                pairs.push(("design", str_v(design)));
                pairs.push(("pattern", str_v(pattern)));
            }
            Op::OracleBulk { design, patterns } => {
                pairs.push(("op", str_v("oracle-bulk")));
                pairs.push(("design", str_v(design)));
                pairs.push((
                    "patterns",
                    Value::Arr(patterns.iter().map(|p| str_v(p)).collect()),
                ));
            }
            Op::OracleSweep {
                design,
                count,
                seed,
            } => {
                pairs.push(("op", str_v("oracle-sweep")));
                pairs.push(("design", str_v(design)));
                pairs.push(("count", num_v(*count)));
                pairs.push(("seed", num_v(*seed)));
            }
            Op::Attack(job) => {
                pairs.push(("op", str_v("attack")));
                pairs.push(("bench", str_v(&job.bench)));
                pairs.push(("locker", str_v(&job.locker)));
                pairs.push(("width", num_v(job.width as u64)));
                pairs.push(("attack", str_v(&job.attack)));
                pairs.push(("seed", num_v(job.seed)));
                pairs.push(("max_iters", num_v(job.max_iters as u64)));
                pairs.push(("samples", num_v(job.samples as u64)));
                if let Some(solver) = &job.solver {
                    pairs.push(("solver", str_v(solver)));
                }
                if let Some(encoder) = &job.encoder {
                    pairs.push(("encoder", str_v(encoder)));
                }
            }
            Op::Campaign { spec, shard } => {
                pairs.push(("op", str_v("campaign")));
                pairs.push(("spec", str_v(spec)));
                if let Some((index, count)) = shard {
                    pairs.push(("shard", str_v(&format!("{index}/{count}"))));
                }
            }
            Op::Metrics => pairs.push(("op", str_v("metrics"))),
            Op::Sleep { ms } => {
                pairs.push(("op", str_v("sleep")));
                pairs.push(("ms", num_v(*ms)));
            }
            Op::Shutdown => pairs.push(("op", str_v("shutdown"))),
        }
        obj(pairs)
    }

    /// Parses a request from JSON.
    ///
    /// # Errors
    ///
    /// Names the missing/mistyped field or the unknown op.
    pub fn from_json(v: &Value) -> Result<Request, String> {
        let id = get_u64(v, "id")?;
        let op_tag = get_str(v, "op")?;
        let op = match op_tag.as_str() {
            "ping" => Op::Ping,
            "load-bench" => Op::LoadBench {
                name: get_str(v, "name")?,
            },
            "load-netlist" => Op::LoadNetlist {
                name: get_str(v, "name")?,
                bench: get_str(v, "bench")?,
            },
            "oracle" => Op::Oracle {
                design: get_str(v, "design")?,
                pattern: get_str(v, "pattern")?,
            },
            "oracle-bulk" => Op::OracleBulk {
                design: get_str(v, "design")?,
                patterns: get_str_list(v, "patterns")?,
            },
            "oracle-sweep" => Op::OracleSweep {
                design: get_str(v, "design")?,
                count: get_u64(v, "count")?,
                seed: get_u64(v, "seed")?,
            },
            "attack" => Op::Attack(AttackJob {
                bench: get_str(v, "bench")?,
                locker: get_str(v, "locker")?,
                width: get_u64(v, "width")? as usize,
                attack: get_str(v, "attack")?,
                seed: get_u64(v, "seed")?,
                max_iters: get_u64(v, "max_iters")? as usize,
                samples: get_u64(v, "samples")? as usize,
                solver: opt_str(v, "solver")?,
                encoder: opt_str(v, "encoder")?,
            }),
            "campaign" => Op::Campaign {
                spec: get_str(v, "spec")?,
                shard: match opt_str(v, "shard")? {
                    Some(text) => Some(glitchlock_jobs::parse_shard(&text)?),
                    None => None,
                },
            },
            "metrics" => Op::Metrics,
            "sleep" => Op::Sleep {
                ms: get_u64(v, "ms")?,
            },
            "shutdown" => Op::Shutdown,
            other => return Err(format!("unknown op `{other}`")),
        };
        Ok(Request { id, op })
    }

    /// Serializes to the framed wire payload.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().to_string().into_bytes()
    }

    /// Deserializes from a framed wire payload.
    ///
    /// # Errors
    ///
    /// Invalid UTF-8, invalid JSON, or an invalid request shape.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("payload utf-8: {e}"))?;
        let v = glitchlock_obs::json::parse(text)?;
        Request::from_json(&v)
    }
}

impl Response {
    /// Renders the response as canonical JSON.
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(&str, Value)> = vec![("id", num_v(self.id))];
        match &self.reply {
            Reply::Pong => pairs.push(("reply", str_v("pong"))),
            Reply::Loaded {
                design,
                inputs,
                outputs,
            } => {
                pairs.push(("reply", str_v("loaded")));
                pairs.push(("design", str_v(design)));
                pairs.push(("inputs", num_v(*inputs as u64)));
                pairs.push(("outputs", num_v(*outputs as u64)));
            }
            Reply::Oracle { output } => {
                pairs.push(("reply", str_v("oracle")));
                pairs.push(("output", str_v(output)));
            }
            Reply::OracleBulk { outputs } => {
                pairs.push(("reply", str_v("oracle-bulk")));
                pairs.push((
                    "outputs",
                    Value::Arr(outputs.iter().map(|o| str_v(o)).collect()),
                ));
            }
            Reply::Sweep { count, digest } => {
                pairs.push(("reply", str_v("sweep")));
                pairs.push(("count", num_v(*count)));
                pairs.push(("digest", str_v(digest)));
            }
            Reply::Attack { record } => {
                pairs.push(("reply", str_v("attack")));
                pairs.push(("record", record.to_json()));
            }
            Reply::Campaign { spec_hash, records } => {
                pairs.push(("reply", str_v("campaign")));
                pairs.push(("spec_hash", str_v(spec_hash)));
                pairs.push((
                    "records",
                    Value::Arr(records.iter().map(JobRecord::to_json).collect()),
                ));
            }
            Reply::Metrics { metrics } => {
                pairs.push(("reply", str_v("metrics")));
                pairs.push((
                    "metrics",
                    Value::Obj(
                        metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Num(*v)))
                            .collect(),
                    ),
                ));
            }
            Reply::Busy { reason } => {
                pairs.push(("reply", str_v("busy")));
                pairs.push(("reason", str_v(reason)));
            }
            Reply::Slept => pairs.push(("reply", str_v("slept"))),
            Reply::ShuttingDown => pairs.push(("reply", str_v("shutting-down"))),
            Reply::Error { code, message } => {
                pairs.push(("reply", str_v("error")));
                pairs.push(("code", str_v(code.tag())));
                pairs.push(("message", str_v(message)));
            }
        }
        obj(pairs)
    }

    /// Parses a response from JSON.
    ///
    /// # Errors
    ///
    /// Names the missing/mistyped field or the unknown reply tag.
    pub fn from_json(v: &Value) -> Result<Response, String> {
        let id = get_u64(v, "id")?;
        let tag = get_str(v, "reply")?;
        let reply = match tag.as_str() {
            "pong" => Reply::Pong,
            "loaded" => Reply::Loaded {
                design: get_str(v, "design")?,
                inputs: get_u64(v, "inputs")? as usize,
                outputs: get_u64(v, "outputs")? as usize,
            },
            "oracle" => Reply::Oracle {
                output: get_str(v, "output")?,
            },
            "oracle-bulk" => Reply::OracleBulk {
                outputs: get_str_list(v, "outputs")?,
            },
            "sweep" => Reply::Sweep {
                count: get_u64(v, "count")?,
                digest: get_str(v, "digest")?,
            },
            "attack" => Reply::Attack {
                record: JobRecord::from_json(v.get("record").ok_or("missing object `record`")?)?,
            },
            "campaign" => {
                let Some(Value::Arr(items)) = v.get("records") else {
                    return Err("missing array `records`".to_string());
                };
                Reply::Campaign {
                    spec_hash: get_str(v, "spec_hash")?,
                    records: items
                        .iter()
                        .map(JobRecord::from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                }
            }
            "metrics" => {
                let Some(Value::Obj(map)) = v.get("metrics") else {
                    return Err("missing object `metrics`".to_string());
                };
                let mut metrics = BTreeMap::new();
                for (k, mv) in map {
                    let n = mv
                        .as_num()
                        .ok_or_else(|| format!("metric `{k}` is not a number"))?;
                    metrics.insert(k.clone(), n);
                }
                Reply::Metrics { metrics }
            }
            "busy" => Reply::Busy {
                reason: get_str(v, "reason")?,
            },
            "slept" => Reply::Slept,
            "shutting-down" => Reply::ShuttingDown,
            "error" => {
                let code_tag = get_str(v, "code")?;
                Reply::Error {
                    code: ErrorCode::parse(&code_tag)
                        .ok_or_else(|| format!("unknown error code `{code_tag}`"))?,
                    message: get_str(v, "message")?,
                }
            }
            other => return Err(format!("unknown reply `{other}`")),
        };
        Ok(Response { id, reply })
    }

    /// Serializes to the framed wire payload.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().to_string().into_bytes()
    }

    /// Deserializes from a framed wire payload.
    ///
    /// # Errors
    ///
    /// Invalid UTF-8, invalid JSON, or an invalid response shape.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("payload utf-8: {e}"))?;
        let v = glitchlock_obs::json::parse(text)?;
        Response::from_json(&v)
    }
}

/// Renders a bit row as the wire bit-string.
pub fn bits_to_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Parses a wire bit-string.
///
/// # Errors
///
/// Rejects any character but `0`/`1`.
pub fn bits_from_string(text: &str) -> Result<Vec<bool>, String> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("bad bit `{other}` in pattern (want 0/1)")),
        })
        .collect()
}
