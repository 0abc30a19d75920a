//! The pruned SSP path on a real 512-variable allocation network: the
//! network has more than 100 000 arcs, so `min_cost_flow_with` settles its
//! rounds over the reduced-cost working set, and the result must be the
//! exact optimum that an independent algorithm (Goldberg–Tarjan cost
//! scaling) reaches — without leaning on the certificate fallback.
//!
//! Seed 42 is the instance on which the working-set repair once returned a
//! violated certificate: a cycle cancelled mid-repair left a just-lowered
//! node unqueued, and the flow came out 24 267 cost units above optimum.

use lemra_core::{build_network, AllocationProblem};
use lemra_netflow::{min_cost_flow_with, Backend, SolverWorkspace};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};

const VARS: usize = 512;
const REGISTERS: u32 = 64;

#[test]
fn pruned_solve_of_the_512_variable_block_is_exact() {
    let seed = 42;
    let problem = AllocationProblem::new(
        random_lifetimes(&RandomConfig::scaled(VARS, seed)),
        REGISTERS,
    )
    .with_activity(random_patterns(VARS, seed));
    let view = build_network(&problem).expect("builds");
    assert!(
        view.net.arc_count() >= 100_000,
        "{} arcs: below the pruning gate",
        view.net.arc_count()
    );
    let target = i64::from(REGISTERS);

    let mut ws = SolverWorkspace::new();
    let pruned =
        min_cost_flow_with(&view.net, view.source, view.sink, target, &mut ws).expect("feasible");
    assert_eq!(
        ws.stats().prune_fallbacks,
        0,
        "the repaired potentials must certify the pruned flow on their own"
    );

    let reference = Backend::CostScaling
        .solve(&view.net, view.source, view.sink, target)
        .expect("feasible");
    assert_eq!(pruned.cost, reference.cost);
    // The builder tie-breaks costs to a unique optimum.
    assert_eq!(pruned.flows, reference.flows);
}
