//! Fault-injection regression tests for the cost-scaling backend's place
//! in a resilient fallback chain (`fault-inject` feature): a fault planted
//! in the `cost_scaling` attempt must be absorbed by the chain without
//! changing a byte of the solution, recording exactly one incident — and
//! `cost_scaling` must itself serve as the recovery link when an earlier
//! backend is the one faulted.
//!
//! The fault plan is process-global; this file is its own test binary (so
//! its own process), and all scenarios run inside one `#[test]` to keep
//! them serialized.
#![cfg(feature = "fault-inject")]

use lemra_netflow::{
    Backend, FaultKind, FaultPlan, FlowNetwork, NodeId, ResilientSolver, SolverWorkspace,
};

/// A diamond with power-of-two cost offsets, so the optimum is *unique*
/// and the fallback's solution must match the primary's arc-by-arc.
fn tie_broken_diamond() -> (FlowNetwork, NodeId, NodeId) {
    let mut net = FlowNetwork::new();
    let s = net.add_node();
    let a = net.add_node();
    let b = net.add_node();
    let t = net.add_node();
    net.add_arc(s, a, 1, (1 << 25) + 1).unwrap();
    net.add_arc(a, t, 1, (1 << 25) + 2).unwrap();
    net.add_arc(s, b, 1, (3 << 25) + 4).unwrap();
    net.add_arc(b, t, 1, (3 << 25) + 8).unwrap();
    (net, s, t)
}

#[test]
fn cost_scaling_chain_absorbs_and_recovers_injected_faults() {
    let (net, s, t) = tie_broken_diamond();
    let reference = Backend::CostScaling.solve(&net, s, t, 1).unwrap();

    // Every fault kind planted in the cost_scaling attempt: the SSP anchor
    // absorbs it and reproduces the identical (unique-optimum) flow.
    for kind in [FaultKind::Panic, FaultKind::Budget, FaultKind::Overflow] {
        FaultPlan::new()
            .fail_backend_at(kind, 0, "cost_scaling")
            .install();
        let mut solver = ResilientSolver::new(Backend::CostScaling);
        let sol = solver
            .solve(&net, s, t, 1)
            .expect("anchor must absorb the injected fault");
        FaultPlan::clear();
        assert_eq!(sol.cost, reference.cost, "{kind:?}: objective drifted");
        assert_eq!(
            sol.flows, reference.flows,
            "{kind:?}: placements drifted under fallback"
        );
        assert_eq!(solver.incident_count(), 1, "{kind:?}");
        let incident = &solver.incidents()[0];
        assert_eq!(incident.backend, "cost_scaling", "{kind:?}");
        assert_eq!(incident.recovered_with.as_deref(), Some("ssp"), "{kind:?}");
    }

    // The qualified fault fires once: a second solve on the same chain
    // runs clean and records nothing new.
    FaultPlan::new()
        .fail_backend_at(FaultKind::Panic, 0, "cost_scaling")
        .install();
    let mut solver = ResilientSolver::new(Backend::CostScaling);
    solver.solve(&net, s, t, 1).expect("first solve recovers");
    let second = solver.solve(&net, s, t, 1).expect("second solve is clean");
    FaultPlan::clear();
    assert_eq!(second.flows, reference.flows);
    assert_eq!(solver.incident_count(), 1);

    // cost_scaling as the recovery link: panic the SSP primary on a
    // negative-cycle network (which SSP could not solve anyway) and let
    // cost scaling complete the solve. The unit runs s -> a -> t and the
    // a <-> b cycle is saturated: cost -10.
    let mut cyclic = FlowNetwork::new();
    let cs = cyclic.add_node();
    let ca = cyclic.add_node();
    let cb = cyclic.add_node();
    let ct = cyclic.add_node();
    cyclic.add_arc(cs, ca, 1, 0).unwrap();
    cyclic.add_arc(ca, cb, 1, -5).unwrap();
    cyclic.add_arc(cb, ca, 1, -5).unwrap();
    cyclic.add_arc(ca, ct, 1, 0).unwrap();
    let clean = Backend::CostScaling.solve(&cyclic, cs, ct, 1).unwrap();
    assert_eq!(clean.cost, -10);
    FaultPlan::new()
        .fail_backend_at(FaultKind::Panic, 0, "ssp")
        .install();
    let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::CostScaling]);
    let sol = solver
        .solve(&cyclic, cs, ct, 1)
        .expect("cost_scaling must complete the negative-cycle solve");
    FaultPlan::clear();
    assert_eq!(sol.flows, clean.flows);
    assert_eq!(sol.value, 1);
    assert_eq!(solver.incident_count(), 1);
    let incident = &solver.incidents()[0];
    assert_eq!(incident.backend, "ssp");
    assert_eq!(incident.recovered_with.as_deref(), Some("cost_scaling"));
    assert!(incident.error.contains("panicked") || incident.error.contains("injected"));

    // LEMRA_FAULT-style spec parsing covers the new backend name.
    let plan: FaultPlan = "budget@3:cost_scaling".parse().expect("valid spec");
    plan.install();
    let mut solver = ResilientSolver::new(Backend::CostScaling);
    let mut ws = SolverWorkspace::new();
    for i in 0..5 {
        let sol = solver
            .solve(&net, s, t, 1)
            .expect("every solve must complete");
        assert_eq!(sol.flows, reference.flows, "solve #{i}");
    }
    // Exercise the explicit-workspace path too, post-plan (already fired).
    let sol = solver.solve_with(&net, s, t, 1, &mut ws).unwrap();
    assert_eq!(sol.flows, reference.flows);
    FaultPlan::clear();
    assert_eq!(solver.incident_count(), 1);
    assert_eq!(solver.incidents()[0].solve_index, 3);
    assert_eq!(solver.incidents()[0].backend, "cost_scaling");
}
