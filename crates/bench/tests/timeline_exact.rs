//! The time-line hand-off network on a real 512-variable allocation
//! problem: under the default static register model every hand-off cost
//! splits per endpoint, and the block is far past the gate, so
//! `build_network` emits per-window tick chains instead of the ~200 000-arc
//! bipartite block. The result must be the exact optimum that an
//! independent algorithm (Goldberg–Tarjan cost scaling) reaches, both on
//! the time-line network itself and on the bipartite build of the same
//! problem, and its replayed energy must equal the bipartite allocation's.

use lemra_core::{
    allocate, build_network, build_network_bipartite, AllocationProblem, AllocationReport,
    NetworkForm,
};
use lemra_netflow::{min_cost_flow_with, Backend, SolverWorkspace};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};

const VARS: usize = 512;
const REGISTERS: u32 = 64;

/// The seed-42 block's optimum in micro-energy units and the static energy
/// its bipartite allocation replays to, as the bipartite build of the
/// 512-variable block allocated them before the time-line form existed.
const BIPARTITE_OPTIMUM: i64 = -5_285_400_000;
const BIPARTITE_STATIC_ENERGY: f64 = 5084.6;

#[test]
fn timeline_solve_of_the_512_variable_block_is_exact() {
    let seed = 42;
    let problem = AllocationProblem::new(
        random_lifetimes(&RandomConfig::scaled(VARS, seed)),
        REGISTERS,
    )
    .with_activity(random_patterns(VARS, seed));
    let view = build_network(&problem).expect("builds");
    assert_eq!(view.form, NetworkForm::TimeLine);
    assert!(
        view.net.arc_count() < 10_000,
        "{} arcs: the time-line form should be linear-size",
        view.net.arc_count()
    );
    let target = i64::from(REGISTERS);

    let mut ws = SolverWorkspace::new();
    let solved =
        min_cost_flow_with(&view.net, view.source, view.sink, target, &mut ws).expect("feasible");
    let reference = Backend::CostScaling
        .solve(&view.net, view.source, view.sink, target)
        .expect("feasible");
    assert_eq!(solved.cost, reference.cost);
    // The builder tie-breaks costs to a unique optimum.
    assert_eq!(solved.flows, reference.flows);

    let bipartite = build_network_bipartite(&problem).expect("builds");
    assert_eq!(bipartite.form, NetworkForm::Bipartite);
    assert!(bipartite.net.arc_count() >= 100_000);
    let bipartite_solved = Backend::CostScaling
        .solve(&bipartite.net, bipartite.source, bipartite.sink, target)
        .expect("feasible");
    assert_eq!(bipartite.raw_cost(&bipartite_solved), BIPARTITE_OPTIMUM);
    assert_eq!(view.raw_cost(&solved), BIPARTITE_OPTIMUM);

    let allocation = allocate(&problem).expect("allocates");
    assert_eq!(allocation.flow_cost().raw(), BIPARTITE_OPTIMUM);
    let report = AllocationReport::new(&problem, &allocation);
    assert!(
        (report.static_energy - BIPARTITE_STATIC_ENERGY).abs() < 1e-6,
        "replayed static energy {} differs from the bipartite allocation's",
        report.static_energy
    );
}

/// The gate: the paper's instances and a 256-variable block keep the
/// bipartite network they always built, arc for arc, under both graph
/// styles; a 512-variable block crosses the gate and builds the time-line
/// form, while pairwise activity costs keep it bipartite.
#[test]
fn only_the_512_variable_block_crosses_the_gate() {
    use lemra_core::GraphStyle;
    use lemra_energy::RegisterEnergyKind;
    use lemra_workloads::paper_examples::{figure1, figure3, figure4, storage_demo};
    use lemra_workloads::rsp::{rsp, RspConfig};

    let radar = rsp(&RspConfig::default());
    let mut small: Vec<AllocationProblem> = [figure1(), figure3(), figure4(), storage_demo()]
        .into_iter()
        .map(|f| AllocationProblem::new(f.lifetimes, f.registers).with_activity(f.activity))
        .collect();
    small.push(AllocationProblem::new(radar.lifetimes, 16).with_activity(radar.activity));
    small.push(AllocationProblem::new(
        random_lifetimes(&RandomConfig::scaled(256, 42)),
        32,
    ));
    for p in small {
        for style in [GraphStyle::Regions, GraphStyle::AllPairs] {
            let p = p.clone().with_style(style);
            let view = build_network(&p).expect("builds");
            let bipartite = build_network_bipartite(&p).expect("builds");
            assert_eq!(view.form, NetworkForm::Bipartite);
            assert_eq!(view.net.arc_count(), bipartite.net.arc_count());
        }
    }

    let block =
        AllocationProblem::new(random_lifetimes(&RandomConfig::scaled(VARS, 42)), REGISTERS)
            .with_activity(random_patterns(VARS, 42));
    assert_eq!(
        build_network(&block).expect("builds").form,
        NetworkForm::TimeLine
    );
    let pairwise = block.with_register_energy(RegisterEnergyKind::Activity);
    assert_eq!(
        build_network(&pairwise).expect("builds").form,
        NetworkForm::Bipartite
    );
}
