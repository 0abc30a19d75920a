//! Search effort of the SSP solve of a real 512-variable allocation block:
//! the Dijkstra rounds alternate between the source and the sink, so each
//! round settles only the nodes near the shortest paths instead of the
//! whole network (the sink is the farthest node from the source).

use lemra_core::{build_network, AllocationProblem};
use lemra_netflow::{min_cost_flow_with, SolverWorkspace};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};

const VARS: usize = 512;
const REGISTERS: u32 = 64;

#[test]
fn alternating_rounds_settle_well_under_the_whole_network() {
    let seed = 42;
    let problem = AllocationProblem::new(
        random_lifetimes(&RandomConfig::scaled(VARS, seed)),
        REGISTERS,
    )
    .with_activity(random_patterns(VARS, seed));
    let view = build_network(&problem).expect("builds");
    let mut ws = SolverWorkspace::new();
    min_cost_flow_with(
        &view.net,
        view.source,
        view.sink,
        i64::from(REGISTERS),
        &mut ws,
    )
    .expect("feasible");
    let stats = ws.stats();
    assert_eq!(stats.dijkstra_rounds, 63);
    assert_eq!(stats.pushed_units, 64);
    // A round that settled every node would reach rounds × nodes.
    let full = stats.dijkstra_rounds * view.net.node_count() as u64;
    assert!(
        stats.settled_nodes * 10 <= full * 6,
        "{} of {full} node settlements",
        stats.settled_nodes
    );
}
