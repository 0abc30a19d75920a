//! End-to-end tests over real loopback sockets: request/response
//! round-trips, byte-identical duplicates vs offline allocation, admission
//! control, deadlines, graceful drain and the admin endpoint.

use lemra_core::{
    allocate, allocate_program_threads, AllocationProblem, AllocationReport, BlockChain,
};
use lemra_ir::{format_block_spec, LifetimeTable, VarId};
use lemra_server::wire::{
    format_allocate_payload, format_allocation, format_program_digest, format_program_payload,
    parse_allocate_payload, RequestKind, Status,
};
use lemra_server::{Client, Server, ServerConfig};
use lemra_workloads::random::{random_lifetimes, RandomConfig};
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

const FIGURE1: &str = "\
block 7
var a def=1 reads=3
var b def=1 reads=3
var c def=2 liveout
var d def=3 liveout
var e def=5 reads=7
";

/// A server on OS-assigned ports with test-friendly overrides.
fn start(overrides: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        listen: "127.0.0.1:0".into(),
        admin: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    };
    overrides(&mut cfg);
    Server::start(cfg).expect("bind loopback")
}

/// A textfmt spec big enough that a debug-mode solve takes real time.
fn heavy_spec() -> String {
    let table = random_lifetimes(&RandomConfig::scaled(400, 11));
    format_block_spec(&table, &[])
}

#[test]
fn ping_allocate_and_byte_identical_duplicates() {
    let mut server = start(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();

    let pong = client.ping().unwrap();
    assert_eq!(pong.status, Status::Ok);
    assert_eq!(pong.payload, "pong");

    let first = client.allocate(FIGURE1, 2, None).unwrap();
    assert_eq!(first.status, Status::Ok, "{}", first.payload);
    let second = client.allocate(FIGURE1, 2, None).unwrap();
    assert_eq!(second.status, Status::Ok);
    assert_eq!(
        first.payload, second.payload,
        "duplicate requests must byte-compare"
    );

    // The server's response must equal the offline allocation, byte for
    // byte: same parse, same pipeline, only a socket in between.
    let request = parse_allocate_payload(&format_allocate_payload(FIGURE1, 2, None)).unwrap();
    let allocation = allocate(&request.problem).unwrap();
    let report = AllocationReport::new(&request.problem, &allocation);
    assert_eq!(
        first.payload,
        format_allocation(&request, &allocation, &report)
    );

    server.join();
}

/// Back-to-back requests on one connection must not stall on the
/// transport: a response split across small writes on a socket with
/// Nagle's algorithm on waits for the client's delayed ACK, ~40 ms a
/// request, whatever the solve costs.
#[test]
fn back_to_back_requests_on_one_connection_do_not_stall() {
    let mut server = start(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    // Warm the worker's caches and thread-local workspaces.
    assert_eq!(
        client.allocate(FIGURE1, 2, None).unwrap().status,
        Status::Ok
    );
    let mut latencies: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let response = client.allocate(FIGURE1, 2, None).unwrap();
            assert_eq!(response.status, Status::Ok, "{}", response.payload);
            t0.elapsed()
        })
        .collect();
    latencies.sort();
    let p50 = latencies[latencies.len() / 2];
    assert!(
        p50 < Duration::from_millis(10),
        "p50 {p50:?} over 20 back-to-back requests: {latencies:?}"
    );
    server.join();
}

#[test]
fn program_digest_matches_offline_allocation() {
    let table = |shift: u32| {
        LifetimeTable::from_intervals(8, vec![(1 + shift, vec![4], false), (2, vec![6], true)])
            .unwrap()
    };
    let chain = BlockChain {
        blocks: vec![
            AllocationProblem::new(table(0), 2),
            AllocationProblem::new(table(1), 2),
        ],
        links: vec![vec![(VarId(1), VarId(0))]],
    };
    let payload = format_program_payload(&chain, None).unwrap();

    let mut server = start(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let response = client.program(&payload).unwrap();
    assert_eq!(response.status, Status::Ok, "{}", response.payload);

    let offline = allocate_program_threads(&chain, 1).unwrap();
    assert_eq!(response.payload, format_program_digest(&offline));
    server.join();
}

#[test]
fn malformed_payloads_get_typed_rejections() {
    let mut server = start(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();

    let bad = client
        .request_with_id(
            RequestKind::Allocate,
            9,
            b"allocate registers=2\nnot a spec\n",
        )
        .unwrap();
    assert_eq!(bad.status, Status::BadRequest);
    assert!(!bad.payload.is_empty(), "reason payload expected");

    let not_utf8 = client
        .request_with_id(RequestKind::Allocate, 10, &[0xff, 0xfe, 0xfd])
        .unwrap();
    assert_eq!(not_utf8.status, Status::BadRequest);

    // The connection survives rejections.
    assert_eq!(client.ping().unwrap().status, Status::Ok);
    server.join();
}

#[test]
fn oversized_payloads_are_refused_with_the_request_id() {
    let mut server = start(|cfg| cfg.max_payload = 64);
    let mut client = Client::connect(server.addr()).unwrap();
    let big = format_allocate_payload(FIGURE1, 2, None);
    assert!(big.len() > 64);
    let response = client
        .request_with_id(RequestKind::Allocate, 77, &big)
        .unwrap();
    assert_eq!(response.status, Status::TooLarge);
    assert_eq!(response.id, 77);
    server.join();
}

#[test]
fn full_queue_sheds_with_overloaded() {
    let mut server = start(|cfg| {
        cfg.workers = 1;
        cfg.queue_depth = 1;
    });
    let addr = server.addr();
    let spec = heavy_spec();
    let payload = format_allocate_payload(&spec, 4, None);

    let responses: Vec<Status> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let payload = &payload;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .request_with_id(RequestKind::Allocate, 100 + i, payload)
                        .unwrap()
                        .status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let shed = responses
        .iter()
        .filter(|s| **s == Status::Overloaded)
        .count();
    let ok = responses.iter().filter(|s| **s == Status::Ok).count();
    assert!(
        shed >= 1,
        "one worker + depth-1 queue must shed an 8-burst: {responses:?}"
    );
    assert!(ok >= 1, "admitted requests still succeed: {responses:?}");
    assert!(
        server
            .metrics()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.join();
}

#[test]
fn expired_deadlines_get_deadline_exceeded() {
    let mut server = start(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = heavy_spec();
    let response = client.allocate(&spec, 4, Some(1)).unwrap();
    assert_eq!(
        response.status,
        Status::DeadlineExceeded,
        "{}",
        response.payload
    );
    // The same request without the 1 ms deadline succeeds.
    let response = client.allocate(&spec, 4, None).unwrap();
    assert_eq!(response.status, Status::Ok);
    server.join();
}

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let mut server = start(|cfg| cfg.workers = 1);
    let addr = server.addr();
    let spec = heavy_spec();
    let payload = format_allocate_payload(&spec, 4, None);

    let mut client = Client::connect(addr).unwrap();
    // Expected response bytes, computed offline before the drain.
    let request = parse_allocate_payload(&payload).unwrap();
    let allocation = allocate(&request.problem).unwrap();
    let report = AllocationReport::new(&request.problem, &allocation);
    let expected = format_allocation(&request, &allocation, &report);

    let response = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            client
                .request_with_id(RequestKind::Allocate, 1, &payload)
                .unwrap()
        });
        // Let the request reach the worker, then begin the drain while the
        // solve is in flight.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        handle.join().unwrap()
    });
    assert_eq!(response.status, Status::Ok, "{}", response.payload);
    assert_eq!(response.payload, expected);

    // After the drain begins, new work is refused (or the connection is
    // already gone) — never silently served.
    // A transport error here is fine too: the listener may already be down.
    if let Ok(mut late) = Client::connect(addr) {
        if let Ok(response) = late.allocate(FIGURE1, 2, None) {
            assert_ne!(response.status, Status::Ok);
        }
    }
    server.join();
}

#[test]
fn admin_endpoint_serves_stats() {
    let mut server = start(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(
        client.allocate(FIGURE1, 2, None).unwrap().status,
        Status::Ok
    );

    let admin = std::net::TcpStream::connect(server.admin_addr()).unwrap();
    let mut writer = admin.try_clone().unwrap();
    writer.write_all(b"stats\n").unwrap();
    let mut lines = Vec::new();
    for line in BufReader::new(admin).lines() {
        let line = line.unwrap();
        if line == "END" {
            break;
        }
        lines.push(line);
    }
    let stats = lines.join("\n");
    assert!(stats.contains("STAT responses_ok 1"), "{stats}");
    assert!(stats.contains("STAT pings 1"), "{stats}");
    assert!(stats.contains("STAT requests_received 1"), "{stats}");
    assert!(stats.lines().all(|l| l.starts_with("STAT ")), "{stats}");
    server.join();
}
