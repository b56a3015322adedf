//! Protocol round-trip and malformed-input properties for `glk serve`.
//!
//! Every request and response type must survive the full wire path —
//! `encode` → frame → unframe → `decode` — as a fixpoint, and every way a
//! client can mangle that path (torn frames, oversized length headers,
//! non-JSON payloads, trailing garbage) must come back as a typed error
//! response, never a panic and never a wedged server.

use glitchlock::jobs::JobRecord;
use glitchlock::obs::Collector;
use glitchlock::serve::{
    read_frame, start, write_frame, AttackJob, Client, ErrorCode, FrameError, Op, Reply, Request,
    Response, ServerConfig, DEFAULT_MAX_FRAME,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;

fn sample_record(id: &str) -> JobRecord {
    JobRecord {
        id: id.to_string(),
        status: "ok".to_string(),
        verdict: "key-recovered".to_string(),
        detail: "match 1.000".to_string(),
        iterations: 9,
        key_bits: 4,
        attempts: 0,
        wall_ms: 0,
        metrics: [
            ("sat.dips".to_string(), 9.0),
            ("sat.vars".to_string(), 131.0),
        ]
        .into_iter()
        .collect(),
    }
}

/// One value of every request shape, optional fields both present and
/// absent.
fn all_requests() -> Vec<Request> {
    let ops = vec![
        Op::Ping,
        Op::LoadBench {
            name: "s27".to_string(),
        },
        Op::LoadNetlist {
            name: "tiny".to_string(),
            bench: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".to_string(),
        },
        Op::Oracle {
            design: "s27".to_string(),
            pattern: "0101010".to_string(),
        },
        Op::OracleBulk {
            design: "s27".to_string(),
            patterns: vec!["0000000".to_string(), "1111111".to_string()],
        },
        Op::OracleBulk {
            design: "empty-batch".to_string(),
            patterns: vec![],
        },
        Op::OracleSweep {
            design: "s27".to_string(),
            count: 10_000,
            seed: 7,
        },
        Op::Attack(AttackJob {
            bench: "s27".to_string(),
            locker: "xor".to_string(),
            width: 4,
            attack: "sat".to_string(),
            seed: 1,
            max_iters: 64,
            samples: 256,
            solver: None,
            encoder: None,
        }),
        Op::Attack(AttackJob {
            bench: "c17".to_string(),
            locker: "sarlock".to_string(),
            width: 3,
            attack: "removal".to_string(),
            seed: 99,
            max_iters: 512,
            samples: 1024,
            solver: Some("modern".to_string()),
            encoder: Some("aig".to_string()),
        }),
        Op::Campaign {
            spec: "bench s27\nlocker xor 3\nattack sat\n".to_string(),
            shard: None,
        },
        Op::Campaign {
            spec: "bench s27\nlocker xor 3\nattack sat\nseeds 1 2\n".to_string(),
            shard: Some((1, 2)),
        },
        Op::Metrics,
        Op::Sleep { ms: 250 },
        Op::Shutdown,
    ];
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| Request {
            id: i as u64 + 1,
            op,
        })
        .collect()
}

/// One value of every response shape.
fn all_responses() -> Vec<Response> {
    let error_codes = [
        ErrorCode::BadFrame,
        ErrorCode::FrameTooLarge,
        ErrorCode::BadJson,
        ErrorCode::BadRequest,
        ErrorCode::UnknownDesign,
        ErrorCode::WidthMismatch,
        ErrorCode::Cancelled,
        ErrorCode::JobTimeout,
        ErrorCode::DebugDisabled,
        ErrorCode::ServerError,
    ];
    let mut replies = vec![
        Reply::Pong,
        Reply::Loaded {
            design: "s27".to_string(),
            inputs: 7,
            outputs: 4,
        },
        Reply::Oracle {
            output: "0011".to_string(),
        },
        Reply::OracleBulk {
            outputs: vec!["0011".to_string(), "1100".to_string()],
        },
        Reply::OracleBulk { outputs: vec![] },
        Reply::Sweep {
            count: 10_000,
            digest: "b6145712e2e550ab".to_string(),
        },
        Reply::Attack {
            record: sample_record("s27/xor4/sat/s1"),
        },
        Reply::Campaign {
            spec_hash: "0123456789abcdef".to_string(),
            records: vec![
                sample_record("s27/xor3/sat/s1"),
                sample_record("s27/xor3/sat/s2"),
            ],
        },
        Reply::Metrics {
            metrics: [
                ("serve.requests".to_string(), 12.0),
                ("serve.oracle.patterns".to_string(), 2004.0),
            ]
            .into_iter()
            .collect::<BTreeMap<String, f64>>(),
        },
        Reply::Busy {
            reason: "in-flight window full".to_string(),
        },
        Reply::Slept,
        Reply::ShuttingDown,
    ];
    for code in error_codes {
        replies.push(Reply::Error {
            code,
            message: format!("sample `{}` failure", code.tag()),
        });
    }
    replies
        .into_iter()
        .enumerate()
        .map(|(i, reply)| Response {
            id: i as u64 + 1,
            reply,
        })
        .collect()
}

#[test]
fn every_request_round_trips_through_the_full_wire_path() {
    for request in all_requests() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &request.encode()).expect("frame");
        let payload = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).expect("unframe");
        let back = Request::decode(&payload).expect("decode");
        assert_eq!(back, request);
        // The fixpoint: re-encoding the decoded value is byte-identical.
        assert_eq!(back.encode(), request.encode());
    }
}

#[test]
fn every_response_round_trips_through_the_full_wire_path() {
    for response in all_responses() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &response.encode()).expect("frame");
        let payload = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).expect("unframe");
        let back = Response::decode(&payload).expect("decode");
        assert_eq!(back, response);
        assert_eq!(back.encode(), response.encode());
    }
}

#[test]
fn every_error_code_tag_round_trips() {
    for response in all_responses() {
        if let Reply::Error { code, .. } = response.reply {
            assert_eq!(ErrorCode::parse(code.tag()), Some(code));
        }
    }
}

#[test]
fn torn_and_oversized_frames_are_typed_failures() {
    // A frame torn mid-header.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"{}").unwrap();
    let torn = &wire[..2];
    assert!(matches!(
        read_frame(&mut &torn[..], DEFAULT_MAX_FRAME),
        Err(FrameError::Torn { got: 2, want: 4 })
    ));
    // A frame torn mid-payload.
    let torn = &wire[..wire.len() - 1];
    assert!(matches!(
        read_frame(&mut &torn[..], DEFAULT_MAX_FRAME),
        Err(FrameError::Torn { got: 1, want: 2 })
    ));
    // Clean EOF before any byte is a close, not a tear.
    assert!(matches!(
        read_frame(&mut &[][..], DEFAULT_MAX_FRAME),
        Err(FrameError::Closed)
    ));
    // A length header past the cap is refused before any allocation.
    let huge = u32::MAX.to_be_bytes();
    assert!(matches!(
        read_frame(&mut &huge[..], DEFAULT_MAX_FRAME),
        Err(FrameError::TooLarge { .. })
    ));
}

/// Helper: one request/response exchange over a raw socket, bypassing the
/// typed client so the payload can be arbitrary bytes.
fn raw_exchange(stream: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(stream, payload).expect("send");
    let reply = read_frame(stream, DEFAULT_MAX_FRAME).expect("receive");
    Response::decode(&reply).expect("decode")
}

#[test]
fn malformed_payloads_get_typed_errors_and_the_connection_survives() {
    let server = start(ServerConfig::default(), Arc::new(Collector::new())).expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    // Non-UTF-8 bytes → bad-json.
    let response = raw_exchange(&mut stream, &[0xff, 0xfe, 0x00, 0x80]);
    assert!(matches!(
        response.reply,
        Reply::Error {
            code: ErrorCode::BadJson,
            ..
        }
    ));

    // Valid UTF-8, invalid JSON (trailing garbage after the object).
    let response = raw_exchange(&mut stream, b"{\"id\":3,\"op\":\"ping\"} trailing garbage");
    assert!(matches!(
        response.reply,
        Reply::Error {
            code: ErrorCode::BadJson,
            ..
        }
    ));

    // Valid JSON, unknown op — and the salvaged id is echoed.
    let response = raw_exchange(&mut stream, b"{\"id\":42,\"op\":\"frobnicate\"}");
    assert_eq!(response.id, 42);
    assert!(matches!(
        response.reply,
        Reply::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));

    // Valid JSON, not even an object shape we know.
    let response = raw_exchange(&mut stream, b"[1,2,3]");
    assert!(matches!(response.reply, Reply::Error { .. }));

    // After all that abuse the same connection still answers pings.
    let response = raw_exchange(
        &mut stream,
        &Request {
            id: 7,
            op: Op::Ping,
        }
        .encode(),
    );
    assert_eq!(
        response,
        Response {
            id: 7,
            reply: Reply::Pong
        }
    );
}

#[test]
fn seeded_random_garbage_never_panics_the_server() {
    let server = start(ServerConfig::default(), Arc::new(Collector::new())).expect("start");
    // A tiny deterministic byte stream (splitmix-style) so the fuzz corpus
    // is stable run to run.
    let mut state: u64 = 0xdead_beef_cafe_f00d;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for trial in 0..64 {
        let len = (next() % 48) as usize;
        let payload: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
        let response = raw_exchange(&mut stream, &payload);
        assert!(
            matches!(response.reply, Reply::Error { .. }),
            "trial {trial}: garbage must answer a typed error"
        );
    }
    // The server is intact: a well-formed request still succeeds.
    let response = raw_exchange(
        &mut stream,
        &Request {
            id: 1,
            op: Op::Ping,
        }
        .encode(),
    );
    assert_eq!(response.reply, Reply::Pong);
}

#[test]
fn oversized_frame_header_is_refused_then_the_connection_closes() {
    let config = ServerConfig {
        max_frame: 4096,
        ..ServerConfig::default()
    };
    let server = start(config, Arc::new(Collector::new())).expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Claim a frame far past the cap; the server cannot resynchronize a
    // stream after an unread over-long body, so it answers then closes.
    stream.write_all(&(1u32 << 24).to_be_bytes()).expect("send");
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("receive");
    let response = Response::decode(&reply).expect("decode");
    assert!(matches!(
        response.reply,
        Reply::Error {
            code: ErrorCode::FrameTooLarge,
            ..
        }
    ));
    assert!(matches!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME),
        Err(FrameError::Closed)
    ));
    // A fresh connection is unaffected.
    let mut client = Client::connect(server.addr()).expect("connect");
    let id = client.next_id();
    let response = client.call(&Request { id, op: Op::Ping }).expect("ping");
    assert_eq!(response.reply, Reply::Pong);
}

#[test]
fn width_and_design_errors_are_typed() {
    let server = start(ServerConfig::default(), Arc::new(Collector::new())).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Querying before loading names the design.
    let id = client.next_id();
    let response = client
        .call(&Request {
            id,
            op: Op::Oracle {
                design: "s27".to_string(),
                pattern: "0000000".to_string(),
            },
        })
        .expect("call");
    assert!(matches!(
        response.reply,
        Reply::Error {
            code: ErrorCode::UnknownDesign,
            ..
        }
    ));

    let id = client.next_id();
    let response = client
        .call(&Request {
            id,
            op: Op::LoadBench {
                name: "s27".to_string(),
            },
        })
        .expect("load");
    let Reply::Loaded { inputs, .. } = response.reply else {
        panic!("expected loaded, got {:?}", response.reply);
    };

    // A pattern of the wrong width is a width-mismatch, not a panic.
    let id = client.next_id();
    let response = client
        .call(&Request {
            id,
            op: Op::Oracle {
                design: "s27".to_string(),
                pattern: "0".repeat(inputs + 1),
            },
        })
        .expect("call");
    assert!(matches!(
        response.reply,
        Reply::Error {
            code: ErrorCode::WidthMismatch,
            ..
        }
    ));

    // Non-bit characters in a pattern are a bad request.
    let id = client.next_id();
    let response = client
        .call(&Request {
            id,
            op: Op::Oracle {
                design: "s27".to_string(),
                pattern: "01x0101".to_string(),
            },
        })
        .expect("call");
    assert!(matches!(
        response.reply,
        Reply::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
}

/// `solver`/`encoder` on an attack request name the one remaining CDCL
/// profile and CNF encoder: the survivors are no-ops, the removed values a
/// typed bad request that says so.
#[test]
fn removed_solver_and_encoder_values_are_bad_requests() {
    let server = start(ServerConfig::default(), Arc::new(Collector::new())).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut attack = |solver: Option<&str>, encoder: Option<&str>| {
        let id = client.next_id();
        let op = Op::Attack(AttackJob {
            bench: "s27".to_string(),
            locker: "xor".to_string(),
            width: 3,
            attack: "sat".to_string(),
            seed: 1,
            max_iters: 64,
            samples: 256,
            solver: solver.map(str::to_string),
            encoder: encoder.map(str::to_string),
        });
        client.call(&Request { id, op }).expect("call").reply
    };
    let Reply::Attack { record: plain } = attack(None, None) else {
        panic!("a plain attack request must run");
    };
    let Reply::Attack { record: spelled } = attack(Some("modern"), Some("aig")) else {
        panic!("naming the surviving profile and encoder must run");
    };
    assert_eq!(spelled, plain);
    for (solver, encoder, removed) in [
        (Some("legacy"), None, "solver `legacy`"),
        (None, Some("flat"), "encoder `flat`"),
    ] {
        match attack(solver, encoder) {
            Reply::Error {
                code: ErrorCode::BadRequest,
                message,
            } => assert!(
                message.contains(&format!("{removed} was removed")),
                "{message}"
            ),
            other => panic!("{removed}: expected a bad request, got {other:?}"),
        }
    }
}
