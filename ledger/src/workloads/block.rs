//! `block_512`: four 512-variable random blocks (R = 64, random 16-bit
//! patterns), taken round-robin, one `allocate` per op. The Solve layer
//! dominates; solver changes show here and nowhere else.

use crate::json::Json;
use crate::measure::{
    closed_loop, closed_loop_metrics, compose_metrics, energy_total, flow_check, layer_metrics,
    set_up, simulate_check, trace_instance, Ctx, Outcome, Tracer,
};
use crate::stats::median;
use lemra_core::{allocate, build_network, Allocation, AllocationProblem, AllocationReport};
use lemra_netflow::{Backend, LemraConfig};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};
use std::time::Instant;

const BLOCKS: u64 = 4;
const VARS: usize = 512;
const REGISTERS: u32 = 64;

fn inputs(seed: u64) -> Vec<AllocationProblem> {
    (0..BLOCKS)
        .map(|i| {
            let s = seed.wrapping_add(i);
            AllocationProblem::new(random_lifetimes(&RandomConfig::scaled(VARS, s)), REGISTERS)
                .with_activity(random_patterns(VARS, s))
        })
        .collect()
}

fn same_allocation(reference: &Allocation, got: &Allocation) -> Result<(), String> {
    if got.placements() == reference.placements() && got.chains() == reference.chains() {
        Ok(())
    } else {
        Err("block_512: allocation differs from the first one of the same block".to_owned())
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((problems, reference), setup_s) = set_up(ctx, || {
        let problems = inputs(ctx.seed);
        let reference: Result<Vec<Allocation>, String> = problems
            .iter()
            .map(|p| allocate(p).map_err(|e| e.to_string()))
            .collect();
        (problems, reference)
    });
    let reference = match reference {
        Ok(r) => r,
        Err(e) => {
            out.op(Err(format!("block_512: {e}")));
            return out;
        }
    };
    let k = BLOCKS as usize;

    let latencies = closed_loop(ctx.untraced_seconds(), &mut out, |i| {
        let b = i as usize % k;
        let t0 = Instant::now();
        let result = allocate(&problems[b]);
        let elapsed = t0.elapsed();
        let verdict = result
            .map_err(|e| format!("block_512: {e}"))
            .and_then(|a| same_allocation(&reference[b], &a));
        (elapsed, verdict)
    });

    if ctx.trace {
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut counts = vec![Default::default(); k];
        let start = Instant::now();
        let mut op = 0u64;
        while op < BLOCKS || start.elapsed().as_secs_f64() < ctx.traced_seconds() {
            let b = op as usize % k;
            tr.begin_op(op, "block_512.op");
            match trace_instance(&mut tr, b, &problems[b]) {
                Ok(c) => {
                    counts[b] = c;
                    out.op(Ok(()));
                }
                Err(e) => out.op(Err(format!("block_512 block {b}: {e}"))),
            }
            tr.end_op();
            op += 1;
        }
        let allocate_ms = layer_metrics(&mut out, &tr, &counts, BLOCKS as f64);
        compose_metrics(
            &mut out,
            &tr.ms("core.allocate"),
            allocate_ms,
            median(&latencies),
        );
        out.spans = tr.spans;
    } else {
        closed_loop_metrics(&mut out, setup_s, &latencies);
    }

    // Oracles, once per block, outside the timed windows.
    let cfg = LemraConfig::get();
    let mut reports = Vec::new();
    let mut backends = Vec::new();
    for (b, (p, a)) in problems.iter().zip(&reference).enumerate() {
        let what = format!("block_512 block {b}");
        let report = AllocationReport::new(p, a);
        out.check(simulate_check(&what, p, a, &report));
        out.check(flow_check(&what, p, a));
        reports.push(report);
        if let Ok(view) = build_network(p) {
            backends.push(Json::obj([
                ("arcs", Json::from(view.net.arc_count() as u64)),
                (
                    "configured",
                    Json::from(cfg.backend.select_with(&view.net, cfg.par_solve).name()),
                ),
                (
                    "auto",
                    Json::from(Backend::Auto.select_with(&view.net, cfg.par_solve).name()),
                ),
            ]));
        }
    }
    out.info.push(("backends".to_owned(), Json::Arr(backends)));
    if !ctx.trace {
        out.metric("energy_total", energy_total(&reports));
    }
    out
}
