//! `program_4k` and `program_trace`: one whole-program allocation at two
//! workers per op. The 4k loop nest has 32 structurally identical tiles,
//! so warm reuse and pilot speculation pay off; the min-register trace
//! runs the same multi-block layer on distinct bursty blocks, where
//! speculation mispredicts.

use crate::measure::{
    closed_loop, closed_loop_metrics, compose_metrics, golden_check, layer_metrics, set_up,
    simulate_check, trace_instance, Ctx, Outcome, Tracer, DEFAULT_SEED,
};
use crate::stats::median;
use lemra_core::{
    allocate, allocate_chain_threads, allocate_program_threads, reallocate_memory,
    AllocationReport, BlockChain, ProgramAllocation,
};
use lemra_server::wire::format_program_digest;
use lemra_workloads::wholeprogram::{loop_nest, min_reg_trace, LoopNestConfig, MinRegTraceConfig};
use std::time::Instant;

/// Phase-A workers per op: one per core of the two-core reference machine.
const WORKERS: usize = 2;

#[derive(Clone, Copy)]
pub enum Tier {
    LoopNest4k,
    Trace2k,
}

impl Tier {
    fn name(self) -> &'static str {
        match self {
            Tier::LoopNest4k => "program_4k",
            Tier::Trace2k => "program_trace",
        }
    }

    fn chain(self, seed: u64) -> BlockChain {
        match self {
            Tier::LoopNest4k => loop_nest(&LoopNestConfig::tier_4k(seed)),
            Tier::Trace2k => min_reg_trace(&MinRegTraceConfig::tier_2k(seed)),
        }
    }
}

pub fn run(ctx: &Ctx, tier: Tier) -> Outcome {
    let name = tier.name();
    let mut out = Outcome::default();
    let ((chain, reference), setup_s) = set_up(ctx, || {
        let chain = tier.chain(ctx.seed);
        let reference = allocate_program_threads(&chain, WORKERS);
        (chain, reference)
    });
    let reference: ProgramAllocation = match reference {
        Ok(r) => r,
        Err(e) => {
            out.op(Err(format!("{name}: {e}")));
            return out;
        }
    };
    let digest = format_program_digest(&reference);
    let same_as_reference = |program: Result<ProgramAllocation, lemra_core::CoreError>| {
        let program = program.map_err(|e| format!("{name}: {e}"))?;
        if format_program_digest(&program) == digest {
            Ok(())
        } else {
            Err(format!("{name}: digest differs from the first op's"))
        }
    };

    let latencies = closed_loop(ctx.untraced_seconds(), &mut out, |_| {
        let t0 = Instant::now();
        let program = allocate_program_threads(&chain, WORKERS);
        (t0.elapsed(), same_as_reference(program))
    });

    let problems = &reference.chain.problems;
    let allocations = &reference.chain.allocations;
    if ctx.trace {
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut counts = vec![Default::default(); problems.len()];
        let start = Instant::now();
        let mut op = 0;
        while op == 0 || start.elapsed().as_secs_f64() < ctx.traced_seconds() {
            tr.begin_op(op, "program.op");
            let program = tr.span("program.compose", 0, || {
                allocate_program_threads(&chain, WORKERS)
            });
            out.op(same_as_reference(program));
            tr.span("multiblock.chain", 0, || {
                allocate_chain_threads(&chain, WORKERS)
            })
            .map_or_else(|e| out.fail(format!("{name}: chain: {e}")), drop);
            tr.span("multiblock.serial_chain", 0, || {
                allocate_chain_threads(&chain, 1)
            })
            .map_or_else(|e| out.fail(format!("{name}: serial chain: {e}")), drop);
            tr.enter("realloc", 0);
            for (i, (p, a)) in problems.iter().zip(allocations).enumerate() {
                if let Err(e) = reallocate_memory(p, a) {
                    out.fail(format!("{name} block {i}: realloc: {e}"));
                }
            }
            tr.exit();
            for (i, p) in problems.iter().enumerate() {
                match trace_instance(&mut tr, i, p) {
                    Ok(c) => counts[i] = c,
                    Err(e) => out.fail(format!("{name} block {i}: {e}")),
                }
            }
            tr.end_op();
            op += 1;
        }
        let cold_blocks = layer_metrics(&mut out, &tr, &counts, 1.0);
        let compose = tr.ms("program.compose");
        compose_metrics(&mut out, &compose, cold_blocks, median(&latencies));
        let chain_ms = median(&tr.ms("multiblock.chain"));
        let realloc_ms = median(&tr.ms("realloc"));
        out.metric("multiblock.chain_ms", chain_ms);
        out.metric(
            "multiblock.serial_chain_ms",
            median(&tr.ms("multiblock.serial_chain")),
        );
        out.metric("multiblock.cold_blocks_ms", cold_blocks);
        out.metric("multiblock.payoff", cold_blocks / chain_ms);
        out.metric("realloc_ms", realloc_ms);
        out.metric(
            "program.residual_ms",
            median(&compose) - chain_ms - realloc_ms,
        );
        out.spans = tr.spans;
    } else {
        closed_loop_metrics(&mut out, setup_s, &latencies);
        out.metric("energy_total", reference.chain.total_static_energy());
    }

    // Oracles, outside the timed windows: every block executes on the
    // simulator and matches a fresh cold allocation of its boundary-threaded
    // problem, the serial walk commits the same digest, and at the default
    // seed the digest matches the golden file.
    for (i, (p, a)) in problems.iter().zip(allocations).enumerate() {
        let what = format!("{name} block {i}");
        let report = &reference.chain.reports[i];
        out.check(simulate_check(&what, p, a, report));
        match allocate(p) {
            Ok(cold) if AllocationReport::new(p, &cold) == *report => {}
            Ok(_) => out.fail(format!(
                "{what}: chain report differs from a cold allocation"
            )),
            Err(e) => out.fail(format!("{what}: cold allocation: {e}")),
        }
    }
    match allocate_program_threads(&chain, 1) {
        Ok(serial) if format_program_digest(&serial) == digest => {}
        Ok(_) => out.fail(format!(
            "{name}: serial digest differs from {WORKERS} workers'"
        )),
        Err(e) => out.fail(format!("{name}: serial walk: {e}")),
    }
    let golden = format!("{name}.digest");
    if let Some(expected) = ctx.golden_file(&golden, ctx.seed == DEFAULT_SEED) {
        out.check(golden_check(name, expected, &digest));
    }
    out
}
