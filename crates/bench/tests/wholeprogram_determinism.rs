//! Multi-block determinism at whole-program scale: the warm chain walk of a
//! ≥16-block instance must commit exactly what a cold solve of every
//! boundary-threaded block commits, and (under `fault-inject`) an injected
//! per-block solver fault must be absorbed by the resilience layer without
//! changing a byte.
//!
//! The per-backend check on a hand-built chain lives with the pipeline
//! (`lemra-core`'s `warm_walk_equals_cold_allocation_of_every_block`); this
//! test exercises the public API on the real workload generators.

use lemra_core::{allocate, allocate_program, reallocate_memory, AllocationReport, BlockChain};
use lemra_workloads::wholeprogram::{loop_nest, LoopNestConfig};
use std::sync::Mutex;

/// Serializes the tests of this binary: a planted fault plan is
/// process-global, so a solve in a concurrently running test would trip it.
static SERIAL: Mutex<()> = Mutex::new(());

fn nest(seed: u64) -> BlockChain {
    loop_nest(&LoopNestConfig {
        tiles: 16,
        vars_per_tile: 48,
        accumulators: 6,
        steps: 36,
        registers: 8,
        seed,
    })
}

#[test]
fn warm_walk_matches_cold_solves_on_both_generators() {
    use lemra_workloads::wholeprogram::{min_reg_trace, MinRegTraceConfig};

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let trace = min_reg_trace(&MinRegTraceConfig {
        blocks: 16,
        vars_per_block: 32,
        steps: 24,
        registers: 6,
        seed: 7,
    });
    for (name, chain) in [("loop_nest", &nest(7)), ("min_reg_trace", &trace)] {
        let program = allocate_program(chain).unwrap();
        let walk = &program.chain;
        for (i, problem) in walk.problems.iter().enumerate() {
            let cold = allocate(problem).unwrap();
            assert_eq!(
                format!("{:?}", walk.allocations[i]),
                format!("{cold:?}"),
                "{name} block {i}"
            );
            assert_eq!(
                walk.reports[i],
                AllocationReport::new(problem, &cold),
                "{name} block {i}"
            );
            assert_eq!(
                program.realloc[i],
                reallocate_memory(problem, &cold).unwrap(),
                "{name} block {i} realloc"
            );
        }
    }
}

/// One planted per-block solver fault must be absorbed by the fallback
/// chain: the chain still allocates, and every byte matches the uninjected
/// reference. The walk solves through the warm path — the reoptimizer
/// primary backed by the SSP anchor — so the faulted attempt falls through
/// to the anchor, and the reoptimizer's state is dropped. Solve 0 is the
/// first tile's cold solve and solve 1 the second tile's warm repair. The
/// fourteen tiles after it re-price to the second tile's network, so they
/// reuse its answer and run no solve.
#[cfg(feature = "fault-inject")]
#[test]
fn injected_block_fault_is_absorbed_by_the_warm_walk() {
    use lemra_core::{allocate_program_with, ChainAllocation, PipelineCx};
    use lemra_netflow::{FaultKind, FaultPlan};

    fn digest(chain: &ChainAllocation) -> String {
        format!(
            "{:?}|{:?}|{:?}",
            chain.reports, chain.allocations, chain.problems
        )
    }

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let chain = nest(11);
    let reference = allocate_program(&chain).unwrap();
    for at in [0u64, 1] {
        for kind in [FaultKind::Panic, FaultKind::Budget] {
            let mut cx = PipelineCx::new();
            FaultPlan::new().fail_at(kind, at).install();
            let got = allocate_program_with(&mut cx, &chain)
                .expect("chain must survive the injected fault");
            FaultPlan::clear();
            assert_eq!(cx.incident_count(), 1, "{kind:?} at solve {at}");
            assert_eq!(
                digest(&reference.chain),
                digest(&got.chain),
                "{kind:?} at solve {at}"
            );
            assert_eq!(reference.realloc, got.realloc, "{kind:?} at solve {at}");
            // After the fault, the walk went back to re-pricing: the
            // faulted attempt counts as neither a cold nor a warm solve, and
            // every tile after the second re-prices to the retained network
            // and reuses the answer bound from the fallback's flow.
            assert_eq!(
                (cx.cold_solves(), cx.warm_solves(), cx.reused_answers()),
                (1, 0, 14),
                "{kind:?} at solve {at}"
            );
        }
    }
}
