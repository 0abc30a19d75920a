//! `server_mix`: an in-process allocation server on loopback, driven open
//! loop with `loadgen`'s mix (the Figure 1 block, a 40-variable and a
//! 120-variable random block). Two sender threads share one due-time
//! schedule, each on its own connection; latency counts from each
//! request's due time. Transport dominates and no offline layer is
//! stressed.

use crate::measure::{
    compose_metrics, energy_total, latency_metrics, layer_metrics, peak_rss_mib, set_up,
    simulate_check, trace_instance, Ctx, LayerCounts, Outcome, Span, Tracer,
};
use crate::stats::{median, percentile};
use lemra_core::{allocate, AllocationReport};
use lemra_ir::format_block_spec;
use lemra_server::wire::{
    format_allocate_payload, format_allocation, parse_allocate_payload, read_request,
    read_response, write_frame, AllocateRequest, RequestKind, Status, DEFAULT_MAX_PAYLOAD,
};
use lemra_server::{Client, Server, ServerConfig};
use lemra_workloads::random::{random_lifetimes, RandomConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The reported point's offered rate.
const RATE: f64 = 25.0;
/// Rate steps tried after the reported point, stopping at the first one
/// that misses the latency limit or fails a request.
const RAMP: [f64; 4] = [50.0, 100.0, 200.0, 400.0];
const LATENCY_LIMIT_MS: f64 = 100.0;
/// The traced run's second rate: two connections cannot keep up with it
/// while a response costs a delayed-ACK round.
const SATURATED_RATE: f64 = 100.0;
/// One sender per core of the two-core reference machine.
const SENDERS: usize = 2;

const FIGURE1: &str = "\
block 7
var a def=1 reads=3
var b def=1 reads=3
var c def=2 liveout
var d def=3 liveout
var e def=5 reads=7
";

/// One request of the mix with the bytes the offline pipeline answers.
struct Case {
    payload: Vec<u8>,
    request: AllocateRequest,
    expected: String,
}

/// The server's own pipeline, offline: parse, allocate, report, format.
fn compute(payload: &[u8]) -> Result<(AllocateRequest, String), String> {
    let request = parse_allocate_payload(payload).map_err(|e| e.to_string())?;
    let allocation = allocate(&request.problem).map_err(|e| e.to_string())?;
    let report = AllocationReport::new(&request.problem, &allocation);
    let response = format_allocation(&request, &allocation, &report);
    Ok((request, response))
}

fn cases(seed: u64) -> Result<Vec<Case>, String> {
    let small = random_lifetimes(&RandomConfig::scaled(40, seed));
    let medium = random_lifetimes(&RandomConfig::scaled(120, seed.wrapping_add(1)));
    [
        (FIGURE1.to_owned(), 2),
        (format_block_spec(&small, &[]), 4),
        (format_block_spec(&medium, &[]), 4),
    ]
    .into_iter()
    .map(|(spec, registers)| {
        let payload = format_allocate_payload(&spec, registers, None);
        let (request, expected) = compute(&payload)?;
        Ok(Case {
            payload,
            request,
            expected,
        })
    })
    .collect()
}

/// Frame encode and decode of one request and its response, in memory.
fn wire_round_trip(case: &Case, id: u64) -> Result<(), String> {
    let mut request = Vec::new();
    write_frame(
        &mut request,
        RequestKind::Allocate.as_u16(),
        id,
        &case.payload,
    )
    .map_err(|e| e.to_string())?;
    read_request(&mut request.as_slice(), DEFAULT_MAX_PAYLOAD).map_err(|e| e.to_string())?;
    let mut response = Vec::new();
    write_frame(
        &mut response,
        Status::Ok.as_u16(),
        id,
        case.expected.as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    read_response(&mut response.as_slice(), DEFAULT_MAX_PAYLOAD).map_err(|e| e.to_string())?;
    Ok(())
}

/// A running server with one connection per sender. Dropping it closes the
/// connections and waits for every server thread.
struct Live {
    server: Server,
    clients: Vec<Client>,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.clients.clear();
        self.server.join();
    }
}

fn start(cases: &[Case], next_id: &mut u64) -> Result<Live, String> {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        admin: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut live = Live {
        clients: Vec::new(),
        server,
    };
    for _ in 0..SENDERS {
        let client = Client::connect(live.server.addr()).map_err(|e| format!("connect: {e}"))?;
        live.clients.push(client);
    }
    // Every connection serves every case once before anything is timed.
    for client in &mut live.clients {
        for case in cases {
            *next_id += 1;
            let response = client
                .request_with_id(RequestKind::Allocate, *next_id, &case.payload)
                .map_err(|e| format!("warm-up: {e}"))?;
            if response.status != Status::Ok || response.payload != case.expected {
                return Err(format!("warm-up: unexpected response {}", response.status));
            }
        }
    }
    Ok(live)
}

/// What the senders measured over one schedule.
#[derive(Default)]
struct Tally {
    /// Latency of each answered request from its due time.
    due_ms: Vec<f64>,
    /// Round trip of each answered request from its send.
    rtt_ms: Vec<f64>,
    /// How late each request was sent.
    lag_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Refused or unanswered requests.
    failures: Vec<String>,
    /// Answers whose bytes differ from the offline pipeline's: wrong
    /// answers at any rate.
    mismatches: Vec<String>,
    /// Wall time from the first due time to the last response.
    elapsed_s: f64,
    spans: Vec<Span>,
    counts: Vec<(usize, LayerCounts)>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.due_ms.extend(other.due_ms);
        self.rtt_ms.extend(other.rtt_ms);
        self.lag_ms.extend(other.lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.mismatches.extend(other.mismatches);
        self.spans.extend(other.spans);
        self.counts.extend(other.counts);
    }

    fn passes(&self) -> bool {
        self.failed == 0 && percentile(&self.due_ms, 95.0) <= LATENCY_LIMIT_MS
    }
}

/// Offers `rate` requests per second for `seconds`, round-robin over the
/// cases. With `trace`, each request is an op span holding the client round
/// trip and, after it, the offline compute, the in-memory wire round trip
/// and the block's layer calls.
fn open_loop(
    live: &mut Live,
    cases: &[Case],
    rate: f64,
    seconds: f64,
    next_id: &mut u64,
    trace: Option<Instant>,
) -> Tally {
    let total = ((rate * seconds).round() as u64).max(1);
    let first_id = *next_id + 1;
    *next_id += total;
    let next = AtomicU64::new(0);
    let addr = live.server.addr();
    let start = Instant::now() + Duration::from_millis(5);
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let senders: Vec<_> = live
            .clients
            .iter_mut()
            .enumerate()
            .map(|(j, client)| {
                let next = &next;
                scope.spawn(move || {
                    let mut t = Tally::default();
                    let mut tr = trace.map(|origin| Tracer::new(origin, (j as u64 + 1) << 40));
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        let c = k as usize % cases.len();
                        let case = &cases[c];
                        let id = first_id + k;
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let sent = Instant::now();
                        if let Some(tr) = tr.as_mut() {
                            tr.begin_op(id, "server.op");
                            tr.enter("server.client", c);
                        }
                        let response = client.request_with_id(RequestKind::Allocate, id, &case.payload);
                        let done = Instant::now();
                        if let Some(tr) = tr.as_mut() {
                            tr.exit();
                        }
                        t.attempted += 1;
                        t.lag_ms.push((sent - due).as_secs_f64() * 1e3);
                        match response {
                            Ok(r) if r.status == Status::Ok && r.payload == case.expected => {
                                t.due_ms.push((done - due).as_secs_f64() * 1e3);
                                t.rtt_ms.push((done - sent).as_secs_f64() * 1e3);
                            }
                            Ok(r) if r.status == Status::Ok => {
                                t.failed += 1;
                                t.mismatches.push(format!(
                                    "server_mix request {id}: response differs from the offline bytes"
                                ));
                            }
                            Ok(r) => {
                                t.failed += 1;
                                t.failures.push(format!("server_mix request {id}: {}", r.status));
                            }
                            Err(e) => {
                                t.failed += 1;
                                t.failures.push(format!("server_mix request {id}: {e}"));
                                if let Ok(fresh) = Client::connect(addr) {
                                    *client = fresh;
                                }
                            }
                        }
                        if let Some(tr) = tr.as_mut() {
                            if let Err(e) = tr.span("server.compute", c, || compute(&case.payload)) {
                                t.failures.push(format!("server_mix compute: {e}"));
                            }
                            if let Err(e) = tr.span("server.wire", c, || wire_round_trip(case, id)) {
                                t.failures.push(format!("server_mix wire: {e}"));
                            }
                            match trace_instance(tr, c, &case.request.problem) {
                                Ok(counts) => t.counts.push((c, counts)),
                                Err(e) => t.failures.push(format!("server_mix case {c}: {e}")),
                            }
                            tr.end_op();
                        }
                    }
                    t.elapsed_s = start.elapsed().as_secs_f64();
                    t.spans = tr.map(|tr| tr.spans).unwrap_or_default();
                    t
                })
            })
            .collect();
        for sender in senders {
            let t = sender.join().expect("sender thread");
            let elapsed = t.elapsed_s.max(tally.elapsed_s);
            tally.merge(t);
            tally.elapsed_s = elapsed;
        }
    });
    tally
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cases = match cases(ctx.seed) {
        Ok(c) => c,
        Err(e) => {
            out.op(Err(format!("server_mix: offline pipeline: {e}")));
            return out;
        }
    };
    let mut next_id = 0;
    let (live, setup_s) = set_up(ctx, || start(&cases, &mut next_id));
    let mut live = match live {
        Ok(l) => l,
        Err(e) => {
            out.op(Err(format!("server_mix: {e}")));
            return out;
        }
    };
    let count = |out: &mut Outcome, t: &Tally| {
        out.attempted += t.attempted;
        out.failed += t.failed;
        for f in t.failures.iter().chain(&t.mismatches) {
            out.fail(f.clone());
        }
    };

    let point = open_loop(
        &mut live,
        &cases,
        RATE,
        ctx.untraced_seconds(),
        &mut next_id,
        None,
    );
    count(&mut out, &point);

    if ctx.trace {
        let saturated_s = ctx.seconds / 10.0;
        let origin = Instant::now();
        let traced = open_loop(
            &mut live,
            &cases,
            RATE,
            ctx.traced_seconds() - saturated_s,
            &mut next_id,
            Some(origin),
        );
        count(&mut out, &traced);
        // Above the reported point each connection carries back-to-back
        // requests; the round trip there shows what transport costs a busy
        // connection. Sheds and lateness are expected at this rate and are
        // not failures; wrong bytes are.
        let saturated = open_loop(
            &mut live,
            &cases,
            SATURATED_RATE,
            saturated_s,
            &mut next_id,
            None,
        );
        for f in &saturated.mismatches {
            out.fail(f.clone());
        }
        let n = cases.len();
        let tr = Tracer::from_spans(traced.spans);
        let mut counts = vec![LayerCounts::default(); n];
        for (c, counted) in traced.counts {
            counts[c] = counted;
        }
        let allocate_ms = layer_metrics(&mut out, &tr, &counts, n as f64);
        let client = median(&traced.rtt_ms);
        compose_metrics(
            &mut out,
            &tr.ms("server.client"),
            allocate_ms,
            median(&point.rtt_ms),
        );
        // The mix is round-robin: one op's share is the mean over cases.
        let compute = tr.instance_median_sum("server.compute", n) / n as f64;
        let wire = tr.instance_median_sum("server.wire", n) / n as f64;
        let transport = client - compute - wire;
        let metrics = live.server.metrics();
        out.metric("server.client_ms", client);
        out.metric("server.compute_ms", compute);
        out.metric("server.wire_ms", wire);
        out.metric("server.transport_queue_ms", transport);
        out.metric("server.transport_share_pct", transport / client * 100.0);
        let busy = median(&saturated.rtt_ms);
        out.metric("server.saturated_client_ms", busy);
        out.metric(
            "server.saturated_transport_pct",
            (busy - compute - wire) / busy * 100.0,
        );
        out.metric(
            "server.side_p50_us",
            metrics.latency_quantiles_us().0 as f64,
        );
        out.metric("server.shed", metrics.shed.load(Ordering::Relaxed) as f64);
        out.metric(
            "server.incidents",
            metrics.incidents.load(Ordering::Relaxed) as f64,
        );
        out.metric("server.gen_lag_ms", percentile(&traced.lag_ms, 95.0));
        out.spans = tr.spans;
    } else {
        out.metric("setup_s", setup_s);
        out.metric("ops_per_s", point.due_ms.len() as f64 / point.elapsed_s);
        latency_metrics(&mut out, &point.due_ms);
        out.metric("peak_rss_mib", peak_rss_mib());
        // The highest offered rate that meets the latency limit without a
        // failure; 0 when even the reported point misses it.
        let step_s = if ctx.quick { 0.25 } else { ctx.seconds / 8.0 };
        let mut max_rate = if point.passes() { RATE } else { 0.0 };
        if max_rate > 0.0 {
            for rate in RAMP {
                let step = open_loop(&mut live, &cases, rate, step_s, &mut next_id, None);
                // Sheds and slow answers only end the ramp.
                for f in &step.mismatches {
                    out.fail(f.clone());
                }
                if !step.passes() {
                    break;
                }
                max_rate = rate;
            }
        }
        out.metric("max_rate_rps", max_rate);
    }
    drop(live);

    // The byte-equality oracle ran on every response; here every case's
    // offline allocation also executes on the simulator.
    let mut reports = Vec::new();
    for (c, case) in cases.iter().enumerate() {
        let p = &case.request.problem;
        let what = format!("server_mix case {c}");
        match allocate(p) {
            Ok(a) => {
                let report = AllocationReport::new(p, &a);
                out.check(simulate_check(&what, p, &a, &report));
                reports.push(report);
            }
            Err(e) => out.fail(format!("{what}: {e}")),
        }
    }
    if !ctx.trace {
        out.metric("energy_total", energy_total(&reports));
    }
    out
}
