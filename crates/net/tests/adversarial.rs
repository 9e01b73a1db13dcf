//! The adversarial frame battery: every corrupted, truncated, oversized,
//! stalled or out-of-state input a hostile peer can produce must be
//! rejected **silently and cheaply** — no reply frame to probe, no panic,
//! no unbounded allocation, no wedged worker — and the server must go on
//! serving well-behaved clients afterwards.
//!
//! Client-side resilience rides along: a [`RemoteOracle`] facing a corrupt
//! or version-mismatched server, or one whose replies do not fit the plan
//! or its own `Welcome`, reports transient
//! [`QueryError::ConnectionDropped`] instead of panicking.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use skyweb_core::codec::{FORMAT_VERSION, MAGIC};
use skyweb_core::{
    decode_plan, decode_welcome, encode_error_reply, encode_hello, encode_plan, encode_responses,
    encode_welcome, Discoverer, DiscoveryDriver, DriverConfig, Hello, PlanOracle, QueryPlan,
    SqDbSky, Welcome, KIND_PLAN, KIND_WELCOME, WIRE_PROTOCOL,
};
use skyweb_hidden_db::{
    HiddenDb, InterfaceType, Predicate, Query, QueryError, QueryResponse, SchemaBuilder, Tuple,
};
use skyweb_net::wire::{read_frame, write_frame};
use skyweb_net::{NetError, RemoteOracle, ServeReport, Server, ServerConfig, MAX_FRAME_LEN};

fn small_db() -> HiddenDb {
    let schema = SchemaBuilder::new()
        .ranking("a0", 4, InterfaceType::Sq)
        .ranking("a1", 3, InterfaceType::Sq)
        .build();
    let tuples: Vec<Tuple> = (0..12u64)
        .map(|i| Tuple::new(i, vec![(i % 4) as u32, ((i / 4) % 3) as u32]))
        .collect();
    HiddenDb::with_sum_ranking(schema, tuples, 2)
}

/// Serves `db` while `f` runs, then shuts down and returns the report.
/// Shutdown happens even if `f` panics — otherwise a failed assertion
/// would deadlock the scope on the still-accepting server thread.
fn with_server<T>(
    db: &HiddenDb,
    config: ServerConfig,
    f: impl FnOnce(SocketAddr) -> T,
) -> (T, ServeReport) {
    let server = Server::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.serve(db, &config));
        let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        handle.shutdown();
        let report = serving.join().expect("serve loop does not panic");
        match value {
            Ok(v) => (v, report),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// A raw socket that has completed a valid handshake.
fn handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let hello = Hello {
        protocol: WIRE_PROTOCOL,
        label: "adversary".to_string(),
    };
    write_frame(&mut stream, &encode_hello(&hello)).expect("send hello");
    let (kind, _) = read_frame(&mut stream, MAX_FRAME_LEN)
        .expect("welcome")
        .expect("welcome frame");
    assert_eq!(kind, KIND_WELCOME);
    stream
}

/// Reads the stream to EOF and returns everything the server sent back.
/// Panics (failing the test) if the server stalls instead of hanging up.
fn drain(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            // Dropping a socket with adversarial bytes still unread
            // surfaces as a reset rather than a clean EOF on the peer —
            // an equally silent hang-up.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return out,
            Err(e) => panic!("server stalled instead of hanging up: {e}"),
        }
    }
}

/// Sends `bytes` and half-closes the write side, tolerating the race where
/// the server has already reset the connection (it drops as soon as the
/// input is provably bad, possibly before the send completes).
fn send_and_half_close(stream: &mut TcpStream, bytes: &[u8]) {
    let sent = stream
        .write_all(bytes)
        .and_then(|()| stream.flush())
        .and_then(|()| stream.shutdown(Shutdown::Write));
    if let Err(e) = sent {
        assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::NotConnected
            ),
            "unexpected send failure: {e}"
        );
    }
}

/// Sends `bytes` on a fresh handshaken connection, half-closes, and asserts
/// the server hangs up without sending a single reply byte.
fn expect_silent_drop(addr: SocketAddr, bytes: &[u8]) {
    let mut stream = handshake(addr);
    send_and_half_close(&mut stream, bytes);
    let reply = drain(&mut stream);
    assert!(
        reply.is_empty(),
        "server replied {} bytes to adversarial input {bytes:?}",
        reply.len()
    );
}

/// A well-behaved client run that must succeed — the proof that the server
/// survived whatever came before it.
fn good_client_still_served(addr: SocketAddr) {
    let oracle = RemoteOracle::connect_with(addr, "good", Some(Duration::from_secs(5)))
        .expect("handshake after abuse");
    let machine = SqDbSky::new()
        .machine(&oracle.replica())
        .expect("SQ schema");
    let result = DiscoveryDriver::with_oracle(oracle, machine, DriverConfig::new())
        .run()
        .expect("run after abuse");
    assert!(result.complete);
    assert!(!result.skyline.is_empty());
}

/// A one-query plan frame, the corpus for the corruption battery.
fn small_plan_frame() -> Vec<u8> {
    encode_plan(&QueryPlan::new(vec![Query::new(vec![
        Predicate::lt(0, 2),
        Predicate::lt(1, 2),
    ])]))
}

#[test]
fn truncated_handshake_is_rejected_and_the_server_keeps_serving() {
    let db = small_db();
    let ((), report) = with_server(&db, ServerConfig::new().with_workers(1), |addr| {
        let hello = encode_hello(&Hello {
            protocol: WIRE_PROTOCOL,
            label: "trunc".to_string(),
        });
        // Every prefix of the hello frame, including the empty connection.
        for cut in 0..hello.len() {
            let mut stream = TcpStream::connect(addr).expect("connect");
            send_and_half_close(&mut stream, &hello[..cut]);
            let reply = drain(&mut stream);
            assert!(
                reply.is_empty(),
                "server replied to a {cut}-byte handshake prefix"
            );
        }
        good_client_still_served(addr);
    });
    assert_eq!(report.rejected, {
        let hello = encode_hello(&Hello {
            protocol: WIRE_PROTOCOL,
            label: "trunc".to_string(),
        });
        hello.len() as u64
    });
    assert_eq!(report.finished.len(), 1);
}

#[test]
fn mid_frame_disconnect_after_handshake_is_rejected() {
    let db = small_db();
    let plan = small_plan_frame();
    let ((), report) = with_server(&db, ServerConfig::new().with_workers(1), |addr| {
        for cut in 1..plan.len() {
            expect_silent_drop(addr, &plan[..cut]);
        }
        good_client_still_served(addr);
    });
    assert_eq!(report.rejected, (plan.len() - 1) as u64);
    assert_eq!(report.finished.len(), 1);
}

#[test]
fn every_bit_flip_of_a_plan_frame_is_rejected() {
    let db = small_db();
    let plan = small_plan_frame();
    let ((), report) = with_server(&db, ServerConfig::new().with_workers(2), |addr| {
        for byte in 0..plan.len() {
            for bit in 0..8 {
                let mut flipped = plan.clone();
                flipped[byte] ^= 1u8 << bit;
                expect_silent_drop(addr, &flipped);
            }
        }
        good_client_still_served(addr);
    });
    assert_eq!(report.rejected, (plan.len() * 8) as u64);
    assert_eq!(report.finished.len(), 1);
}

#[test]
fn oversized_length_claims_are_dropped_without_allocation() {
    let db = small_db();
    let ((), report) = with_server(&db, ServerConfig::new().with_workers(1), |addr| {
        // A 16-byte frame claiming a terabyte payload, after the handshake.
        let mut huge = Vec::new();
        huge.extend_from_slice(&MAGIC);
        huge.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        huge.push(KIND_PLAN);
        huge.extend_from_slice(&(1u64 << 40).to_le_bytes());
        huge.push(0);
        assert_eq!(huge.len(), 16);
        expect_silent_drop(addr, &huge);

        // The same claim as the *handshake* frame: the tighter handshake
        // cap rejects it before the session even exists.
        let mut stream = TcpStream::connect(addr).expect("connect");
        send_and_half_close(&mut stream, &huge);
        assert!(drain(&mut stream).is_empty());

        good_client_still_served(addr);
    });
    assert_eq!(report.rejected, 2);
    assert_eq!(report.finished.len(), 1);
}

#[test]
fn out_of_state_frames_drop_the_connection() {
    let db = small_db();
    let ((), report) = with_server(&db, ServerConfig::new().with_workers(1), |addr| {
        // A responses frame where only a plan is valid.
        expect_silent_drop(addr, &encode_responses(&[]));
        // A second hello after the handshake.
        expect_silent_drop(
            addr,
            &encode_hello(&Hello {
                protocol: WIRE_PROTOCOL,
                label: "again".to_string(),
            }),
        );
        // A plan frame *instead of* the handshake.
        let mut stream = TcpStream::connect(addr).expect("connect");
        send_and_half_close(&mut stream, &small_plan_frame());
        assert!(drain(&mut stream).is_empty());

        good_client_still_served(addr);
    });
    assert_eq!(report.rejected, 3);
    assert_eq!(report.finished.len(), 1);
}

#[test]
fn slowloris_times_out_and_frees_the_worker() {
    let db = small_db();
    let config = ServerConfig::new()
        .with_workers(1)
        .with_read_timeout(Some(Duration::from_millis(100)));
    let ((), report) = with_server(&db, config, |addr| {
        // The slowloris: three bytes of a header, then silence, with the
        // socket held open. With a single worker, a wedge here would starve
        // every later client.
        let mut slow = TcpStream::connect(addr).expect("connect");
        slow.write_all(&MAGIC[..3]).expect("send partial header");
        slow.flush().expect("flush");

        // The honest client must still get served: the read timeout frees
        // the worker ~100 ms in.
        good_client_still_served(addr);

        // And the slow connection itself was hung up on, not left dangling.
        slow.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let mut buf = [0u8; 16];
        assert_eq!(
            slow.read(&mut buf).expect("read after timeout"),
            0,
            "the stalled connection must be closed, not kept alive"
        );
    });
    assert_eq!(report.rejected, 1);
    assert_eq!(report.finished.len(), 1);
}

#[test]
fn protocol_mismatch_still_gets_a_welcome_then_close() {
    let db = small_db();
    let ((), report) = with_server(&db, ServerConfig::new().with_workers(1), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let hello = Hello {
            protocol: WIRE_PROTOCOL + 1,
            label: "from-the-future".to_string(),
        };
        write_frame(&mut stream, &encode_hello(&hello)).expect("send hello");
        // The server still announces itself — that is *how* the client
        // learns which version to downgrade to — then hangs up.
        let (kind, frame) = read_frame(&mut stream, MAX_FRAME_LEN)
            .expect("welcome")
            .expect("welcome frame");
        assert_eq!(kind, KIND_WELCOME);
        let welcome = decode_welcome(&frame).expect("valid welcome");
        assert_eq!(welcome.protocol, WIRE_PROTOCOL);
        assert!(drain(&mut stream).is_empty(), "no frames after the close");
    });
    assert_eq!(report.rejected, 1);
    assert_eq!(report.finished.len(), 0);
}

/// A fake server speaking a future protocol version: the client must
/// surface [`NetError::ProtocolMismatch`], not limp along.
#[test]
fn client_rejects_a_mismatched_server() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let (kind, _) = read_frame(&mut stream, MAX_FRAME_LEN)
            .expect("hello")
            .expect("hello frame");
        assert_eq!(kind, skyweb_core::KIND_HELLO);
        let welcome = Welcome {
            protocol: WIRE_PROTOCOL + 7,
            ranker: "sum".to_string(),
            k: 2,
            tuple_count: 0,
            schema: SchemaBuilder::new()
                .ranking("a0", 2, InterfaceType::Sq)
                .build(),
        };
        write_frame(&mut stream, &encode_welcome(&welcome)).expect("send welcome");
    });
    match RemoteOracle::connect(addr) {
        Err(NetError::ProtocolMismatch { ours, theirs }) => {
            assert_eq!(ours, WIRE_PROTOCOL);
            assert_eq!(theirs, WIRE_PROTOCOL + 7);
        }
        other => panic!("expected ProtocolMismatch, got {other:?}"),
    }
    fake.join().expect("fake server");
}

/// A server that answers a plan with garbage: the oracle reports the
/// transient [`QueryError::ConnectionDropped`] (so a retrying driver
/// degrades instead of aborting) and latches broken for later plans.
#[test]
fn oracle_latches_broken_after_a_corrupt_reply() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _ = read_frame(&mut stream, MAX_FRAME_LEN)
            .expect("hello")
            .expect("hello frame");
        let welcome = Welcome {
            protocol: WIRE_PROTOCOL,
            ranker: "sum".to_string(),
            k: 2,
            tuple_count: 0,
            schema: SchemaBuilder::new()
                .ranking("a0", 2, InterfaceType::Sq)
                .build(),
        };
        write_frame(&mut stream, &encode_welcome(&welcome)).expect("send welcome");
        let _ = read_frame(&mut stream, MAX_FRAME_LEN)
            .expect("plan")
            .expect("plan frame");
        // Reply with a frame kind that is never valid as a plan answer.
        let bogus = encode_hello(&Hello {
            protocol: WIRE_PROTOCOL,
            label: "gotcha".to_string(),
        });
        write_frame(&mut stream, &bogus).expect("send bogus reply");
    });
    let mut oracle = RemoteOracle::connect(addr).expect("handshake");
    let plan = vec![Query::select_all()];
    let (responses, err) = oracle.run_plan_grouped(&plan, None);
    assert!(responses.is_empty());
    assert_eq!(err, Some(QueryError::ConnectionDropped));
    // Later plans short-circuit on the latched broken flag — still the
    // same transient error, never a panic on a dead socket.
    let (responses, err) = oracle.run_plan_grouped(&plan, None);
    assert!(responses.is_empty());
    assert_eq!(err, Some(QueryError::ConnectionDropped));
    fake.join().expect("fake server");
}

/// A reply frame for a plan of the given number of queries.
type Reply = fn(usize) -> Vec<u8>;

/// A fake server that completes the handshake with a two-attribute, k = 2
/// `Welcome`, then answers every plan with `reply(query count)` until the
/// client hangs up. It accepts `connections` clients, one after another.
fn misreplying_server(
    connections: usize,
    reply: Reply,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        for _ in 0..connections {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = read_frame(&mut stream, MAX_FRAME_LEN)
                .expect("hello")
                .expect("hello frame");
            let welcome = Welcome {
                protocol: WIRE_PROTOCOL,
                ranker: "sum".to_string(),
                k: 2,
                tuple_count: 12,
                schema: small_db().schema().clone(),
            };
            write_frame(&mut stream, &encode_welcome(&welcome)).expect("send welcome");
            // The client hangs up after the rejected reply.
            while let Ok(Some((_, frame))) = read_frame(&mut stream, MAX_FRAME_LEN) {
                let plan = decode_plan(&frame).expect("the client sends valid plans");
                if write_frame(&mut stream, &reply(plan.len())).is_err() {
                    break;
                }
            }
        }
    });
    (addr, fake)
}

/// `queries` responses: the first holds `first`, the rest are empty.
fn responses_with(queries: usize, first: Vec<Tuple>) -> Vec<QueryResponse> {
    let mut responses = vec![
        QueryResponse {
            tuples: Vec::new(),
            overflowed: false,
        };
        queries
    ];
    responses[0].tuples = first.into_iter().map(Arc::new).collect();
    responses
}

/// Replies that decode cleanly but do not fit the plan or the `Welcome`:
/// the oracle must reject each with `CodecError::Invalid`, report
/// `ConnectionDropped`, and leave a driver over it an error to return,
/// never a panic.
#[test]
fn oracle_rejects_replies_that_do_not_fit_the_plan_or_the_welcome() {
    let cases: [(&str, Reply); 5] = [
        ("one response more than the plan", |queries| {
            encode_responses(&responses_with(queries + 1, Vec::new()))
        }),
        ("an error reply answering every query", |queries| {
            encode_error_reply(
                &responses_with(queries, Vec::new()),
                &QueryError::ConnectionDropped,
            )
        }),
        ("an arity-1 tuple under a 2-attribute schema", |queries| {
            encode_responses(&responses_with(queries, vec![Tuple::new(0, vec![1])]))
        }),
        ("a value outside its attribute's domain", |queries| {
            encode_responses(&responses_with(queries, vec![Tuple::new(0, vec![4, 0])]))
        }),
        ("k + 1 tuples in one response", |queries| {
            let tuples = (0..3).map(|i| Tuple::new(i, vec![0, 0])).collect();
            encode_responses(&responses_with(queries, tuples))
        }),
    ];
    for (what, reply) in cases {
        let (addr, fake) = misreplying_server(2, reply);

        let mut oracle = RemoteOracle::connect(addr).expect("handshake");
        let plan = [Query::select_all(), Query::new(vec![Predicate::lt(0, 2)])];
        let (responses, err) = oracle.run_plan_grouped(&plan, None);
        assert!(responses.is_empty(), "{what}");
        assert_eq!(err, Some(QueryError::ConnectionDropped), "{what}");
        drop(oracle);

        let oracle = RemoteOracle::connect(addr).expect("handshake");
        let machine = SqDbSky::new()
            .machine(&oracle.replica())
            .expect("SQ schema");
        let run = DiscoveryDriver::with_oracle(oracle, machine, DriverConfig::new()).run();
        assert!(run.is_err(), "{what}: the driver must fail, got {run:?}");
        fake.join().expect("fake server");
    }
}
