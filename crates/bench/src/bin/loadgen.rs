//! Load generator for `lemra-server`: drives a live server over TCP,
//! byte-compares every response against the offline pipeline, and prints a
//! headline throughput/latency summary.
//!
//! ```text
//! cargo run -p lemra-bench --bin loadgen -- --server 127.0.0.1:7407 \
//!     --mode mix --secs 30 --conns 4
//! cargo run -p lemra-bench --bin loadgen -- --server 127.0.0.1:7407 \
//!     --mode program --tier 4k
//! cargo run -p lemra-bench --bin loadgen -- --server 127.0.0.1:7408 --mode stats
//! ```
//!
//! Modes:
//!
//! - `mix` (default): every connection cycles through a small spec set of
//!   mixed sizes under globally unique request ids (so request-scoped fault
//!   plans like `panic@solve:req7` key on stable ids), retrying sheds and
//!   torn connections with backoff.
//! - `dup`: every request is the same spec (the Figure 1 block); proves
//!   that repeated requests get byte-identical responses, whichever worker
//!   and solve order serve them.
//! - `program`: replays a `lemra-workloads` whole-program tier over the
//!   socket and byte-compares the digest against offline
//!   [`allocate_program`].
//! - `stats`: queries the admin endpoint (point `--server` at the admin
//!   port) and prints the `STAT` lines for CI to grep.
//!
//! Exit status is non-zero if any response mismatched its offline bytes,
//! any request exhausted its retries, or any completed request took more
//! than twice its deadline (the admission-control latency bound).

use lemra_core::{allocate, allocate_program, AllocationReport, BlockChain};
use lemra_ir::format_block_spec;
use lemra_netflow::LemraConfig;
use lemra_server::wire::{
    format_allocate_payload, format_allocation, format_program_digest, format_program_payload,
    parse_allocate_payload, RequestKind, Status,
};
use lemra_server::{Client, RetryPolicy};
use lemra_workloads::random::{random_lifetimes, RandomConfig};
use lemra_workloads::wholeprogram::{loop_nest, LoopNestConfig};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: loadgen --server HOST:PORT [--mode mix|dup|program|stats]\n\
     \x20               [--secs N] [--conns N] [--tier 1k|4k|8k] [--seed S]\n\
     \x20               [--timeout-ms N]";

/// The server's default per-request deadline when the client sends none
/// (`ServerConfig::default().default_timeout_ms`).
const SERVER_DEFAULT_TIMEOUT_MS: u64 = 5_000;

struct Options {
    server: String,
    mode: String,
    secs: u64,
    conns: usize,
    tier: String,
    seed: u64,
    timeout_ms: Option<u64>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut opts = Options {
        server: String::new(),
        mode: "mix".to_owned(),
        secs: 10,
        conns: 4,
        tier: "4k".to_owned(),
        seed: 42,
        timeout_ms: None,
    };
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("loadgen: {name} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        fn numeric<T: std::str::FromStr>(name: &str, v: String) -> T {
            v.parse().unwrap_or_else(|_| {
                eprintln!("loadgen: {name}: `{v}` is not a number\n{USAGE}");
                std::process::exit(2);
            })
        }
        match a.as_str() {
            "--server" => opts.server = value("--server"),
            "--mode" => opts.mode = value("--mode"),
            "--secs" => opts.secs = numeric("--secs", value("--secs")),
            "--conns" => opts.conns = numeric("--conns", value("--conns")),
            "--tier" => opts.tier = value("--tier"),
            "--seed" => opts.seed = numeric("--seed", value("--seed")),
            "--timeout-ms" => {
                opts.timeout_ms = Some(numeric("--timeout-ms", value("--timeout-ms")))
            }
            other => {
                eprintln!("loadgen: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if opts.server.is_empty() {
        eprintln!("loadgen: --server is required\n{USAGE}");
        std::process::exit(2);
    }
    if opts.conns == 0 || opts.secs == 0 {
        eprintln!("loadgen: --conns and --secs must be positive\n{USAGE}");
        std::process::exit(2);
    }
    opts
}

/// One request payload with its offline-computed expected response bytes.
struct Case {
    payload: Vec<u8>,
    kind: RequestKind,
    expected: String,
}

/// A single-block case: the expected bytes come from the same parse +
/// pipeline the server runs, so a match proves only a socket separates them.
fn allocate_case(spec: &str, registers: u32, timeout_ms: Option<u64>) -> Case {
    let payload = format_allocate_payload(spec, registers, timeout_ms);
    let request = parse_allocate_payload(&payload).expect("loadgen spec parses");
    let allocation = allocate(&request.problem).expect("loadgen spec allocates");
    let report = AllocationReport::new(&request.problem, &allocation);
    let expected = format_allocation(&request, &allocation, &report);
    Case {
        payload,
        kind: RequestKind::Allocate,
        expected,
    }
}

fn program_case(chain: &BlockChain, timeout_ms: Option<u64>) -> Case {
    let payload = format_program_payload(chain, timeout_ms).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    });
    let offline = allocate_program(chain).unwrap_or_else(|e| {
        eprintln!("loadgen: offline allocation failed: {e}");
        std::process::exit(1);
    });
    Case {
        payload,
        kind: RequestKind::Program,
        expected: format_program_digest(&offline),
    }
}

/// Per-thread tallies, merged at the end.
#[derive(Default)]
struct Tally {
    ok: u64,
    shed: u64,
    deadline: u64,
    mismatched: u64,
    failed: u64,
    over_deadline: u64,
    /// Final-attempt latency of each completed request, in microseconds.
    latencies: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.mismatched += other.mismatched;
        self.failed += other.failed;
        self.over_deadline += other.over_deadline;
        self.latencies.extend(other.latencies);
    }
}

/// Sends one request under a fixed id, reconnect-and-retrying transport
/// failures and retryable statuses like [`Client::request_with_retry`] but
/// counting each shed so the tally shows the server degrading, not failing.
fn send_counted(
    client: &mut Option<Client>,
    addr: &str,
    case: &Case,
    id: u64,
    policy: &RetryPolicy,
    deadline_ms: u64,
    tally: &mut Tally,
) {
    let mut backoff = policy.base_backoff;
    for attempt in 0..policy.max_attempts {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(policy.max_backoff);
        }
        if client.is_none() {
            match Client::connect(addr) {
                Ok(c) => *client = Some(c),
                Err(_) => continue,
            }
        }
        let conn = client.as_mut().expect("connected above");
        let t0 = Instant::now();
        match conn.request_with_id(case.kind, id, &case.payload) {
            Ok(response) if response.status.is_retryable() => {
                tally.shed += 1;
            }
            Ok(response) => {
                let elapsed = t0.elapsed();
                tally.latencies.push(elapsed.as_micros() as u64);
                if elapsed > Duration::from_millis(2 * deadline_ms) {
                    tally.over_deadline += 1;
                }
                match response.status {
                    Status::Ok => {
                        tally.ok += 1;
                        if response.payload != case.expected {
                            tally.mismatched += 1;
                            eprintln!(
                                "loadgen: request {id}: response diverged from offline bytes"
                            );
                        }
                    }
                    Status::DeadlineExceeded => tally.deadline += 1,
                    other => {
                        tally.failed += 1;
                        eprintln!("loadgen: request {id}: {other}: {}", response.payload);
                    }
                }
                return;
            }
            Err(_) => {
                // Torn connection (e.g. an injected conn kill): drop it and
                // retry under the same id.
                *client = None;
            }
        }
    }
    tally.failed += 1;
    eprintln!("loadgen: request {id}: retries exhausted");
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn run_cases(opts: &Options, cases: &[Case]) -> i32 {
    let deadline_ms = opts.timeout_ms.unwrap_or(SERVER_DEFAULT_TIMEOUT_MS);
    let next_id = AtomicU64::new(1);
    let stop_at = Instant::now() + Duration::from_secs(opts.secs);
    let policy = RetryPolicy::default();

    let t0 = Instant::now();
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.conns)
            .map(|_| {
                let next_id = &next_id;
                let policy = &policy;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut client = Client::connect(&opts.server).ok();
                    while Instant::now() < stop_at {
                        let id = next_id.fetch_add(1, Ordering::Relaxed);
                        let case = &cases[(id as usize) % cases.len()];
                        send_counted(
                            &mut client,
                            &opts.server,
                            case,
                            id,
                            policy,
                            deadline_ms,
                            &mut tally,
                        );
                    }
                    tally
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("loadgen worker"));
        }
    });
    let elapsed = t0.elapsed();

    total.latencies.sort_unstable();
    let requests = total.latencies.len() as u64 + total.failed;
    println!(
        "loadgen mode={} secs={} conns={}: {} requests, {:.1} req/s",
        opts.mode,
        opts.secs,
        opts.conns,
        requests,
        requests as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "status ok={} shed={} deadline={} mismatched={} failed={} over_deadline={}",
        total.ok, total.shed, total.deadline, total.mismatched, total.failed, total.over_deadline,
    );
    println!(
        "latency p50={:.1}ms p99={:.1}ms max={:.1}ms",
        percentile(&total.latencies, 0.50) as f64 / 1e3,
        percentile(&total.latencies, 0.99) as f64 / 1e3,
        total.latencies.last().copied().unwrap_or(0) as f64 / 1e3,
    );

    if total.ok == 0 {
        eprintln!("loadgen: no request succeeded");
        return 1;
    }
    if total.mismatched > 0 || total.failed > 0 || total.over_deadline > 0 {
        return 1;
    }
    0
}

/// `stats` mode: one admin round-trip, `STAT` lines to stdout.
fn run_stats(opts: &Options) -> i32 {
    let stream = match std::net::TcpStream::connect(&opts.server) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: connect {}: {e}", opts.server);
            return 1;
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return 1;
        }
    };
    if let Err(e) = writer.write_all(b"stats\n") {
        eprintln!("loadgen: {e}");
        return 1;
    }
    let mut saw_end = false;
    for line in BufReader::new(stream).lines() {
        match line {
            Ok(line) if line == "END" => {
                saw_end = true;
                break;
            }
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("loadgen: {e}");
                return 1;
            }
        }
    }
    if saw_end {
        0
    } else {
        1
    }
}

fn main() {
    let opts = parse_args();
    let base = LemraConfig::from_env().unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    });
    base.install();

    let code = match opts.mode.as_str() {
        "stats" => run_stats(&opts),
        "mix" => {
            // Mixed sizes: the paper's Figure 1 block plus two random specs
            // big enough to queue under load.
            let small = random_lifetimes(&RandomConfig::scaled(40, opts.seed));
            let medium = random_lifetimes(&RandomConfig::scaled(120, opts.seed + 1));
            let cases = vec![
                allocate_case(FIGURE1, 2, opts.timeout_ms),
                allocate_case(&format_block_spec(&small, &[]), 4, opts.timeout_ms),
                allocate_case(&format_block_spec(&medium, &[]), 4, opts.timeout_ms),
            ];
            run_cases(&opts, &cases)
        }
        "dup" => {
            let cases = vec![allocate_case(FIGURE1, 2, opts.timeout_ms)];
            run_cases(&opts, &cases)
        }
        "program" => {
            let chain = match opts.tier.as_str() {
                "1k" => loop_nest(&LoopNestConfig::tier_1k(opts.seed)),
                "4k" => loop_nest(&LoopNestConfig::tier_4k(opts.seed)),
                "8k" => loop_nest(&LoopNestConfig::tier_8k(opts.seed)),
                other => {
                    eprintln!("loadgen: unknown tier `{other}`\n{USAGE}");
                    std::process::exit(2);
                }
            };
            // Whole-program solves take far longer than the single-block
            // default deadline; give them two minutes unless overridden.
            let timeout = opts.timeout_ms.or(Some(120_000));
            let opts = Options {
                timeout_ms: timeout,
                ..opts
            };
            let cases = vec![program_case(&chain, timeout)];
            run_cases(&opts, &cases)
        }
        other => {
            eprintln!("loadgen: unknown mode `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(code);
}

const FIGURE1: &str = "\
block 7
var a def=1 reads=3
var b def=1 reads=3
var c def=2 liveout
var d def=3 liveout
var e def=5 reads=7
";
