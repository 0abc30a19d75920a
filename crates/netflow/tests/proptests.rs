//! Property tests cross-checking the five independent min-cost flow
//! solvers on random networks (DAGs — the class `lemra-core` generates —
//! plus cyclic networks with negative cycles for the solvers that support
//! them).

use lemra_netflow::{
    max_flow, min_cost_flow, min_cost_flow_cost_scaling, min_cost_flow_cycle_canceling,
    min_cost_flow_network_simplex, min_cost_flow_scaling, validate, ArcId, Backend, FlowNetwork,
    NetflowError, NodeId, Reoptimizer,
};
use proptest::prelude::*;

/// A randomly generated DAG flow network description.
#[derive(Debug, Clone)]
struct RandomDag {
    nodes: usize,
    /// (from, to, lower, cap, cost) with from < to.
    arcs: Vec<(usize, usize, i64, i64, i64)>,
}

fn random_dag(with_lower_bounds: bool) -> impl Strategy<Value = RandomDag> {
    (2usize..10).prop_flat_map(move |nodes| {
        let arc = (0..nodes - 1)
            .prop_flat_map(move |from| (Just(from), from + 1..nodes, 0i64..3, 0i64..5, -12i64..12));
        proptest::collection::vec(arc, 1..24).prop_map(move |raw| RandomDag {
            nodes,
            arcs: raw
                .into_iter()
                .map(|(f, t, lb, extra, cost)| {
                    let lb = if with_lower_bounds { lb } else { 0 };
                    (f, t, lb, lb + extra, cost)
                })
                .collect(),
        })
    })
}

fn build(dag: &RandomDag) -> (FlowNetwork, NodeId, NodeId) {
    let mut net = FlowNetwork::new();
    let ids = net.add_nodes(dag.nodes);
    for &(f, t, lb, cap, cost) in &dag.arcs {
        net.add_arc_bounded(ids[f], ids[t], lb, cap, cost)
            .expect("generated bounds are valid");
    }
    (net, ids[0], ids[dag.nodes - 1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All five solvers agree on feasibility and optimal cost, and every
    /// output validates, for every achievable flow target.
    #[test]
    fn all_solvers_agree(dag in random_dag(false), target in 0i64..8) {
        let (net, s, t) = build(&dag);
        let ssp = min_cost_flow(&net, s, t, target);
        let cc = min_cost_flow_cycle_canceling(&net, s, t, target);
        let sc = min_cost_flow_scaling(&net, s, t, target);
        let nsx = min_cost_flow_network_simplex(&net, s, t, target);
        let gt = min_cost_flow_cost_scaling(&net, s, t, target);
        match (ssp, cc, sc, nsx, gt) {
            (Ok(a), Ok(b), Ok(c), Ok(d), Ok(e)) => {
                validate(&net, s, t, &a).unwrap();
                validate(&net, s, t, &b).unwrap();
                validate(&net, s, t, &c).unwrap();
                validate(&net, s, t, &d).unwrap();
                validate(&net, s, t, &e).unwrap();
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(a.cost, c.cost);
                prop_assert_eq!(a.cost, d.cost);
                prop_assert_eq!(a.cost, e.cost);
                prop_assert_eq!(a.value, target);
            }
            (
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
            ) => {}
            (a, b, c, d, e) => {
                prop_assert!(
                    false,
                    "solver disagreement: {a:?} vs {b:?} vs {c:?} vs {d:?} vs {e:?}"
                )
            }
        }
    }

    /// Network simplex, cycle cancelling and cost scaling also agree on
    /// *cyclic* networks with negative cycles, where SSP refuses.
    #[test]
    fn simplex_matches_cycle_canceling_on_cyclic_networks(
        nodes in 3usize..7,
        raw in proptest::collection::vec(
            (0usize..6, 0usize..6, 1i64..4, -9i64..9),
            2..14,
        ),
        target in 0i64..4,
    ) {
        let mut net = FlowNetwork::new();
        let ids = net.add_nodes(nodes);
        for (f, t_, cap, cost) in raw {
            let (f, t_) = (f % nodes, t_ % nodes);
            if f != t_ {
                net.add_arc(ids[f], ids[t_], cap, cost).expect("valid");
            }
        }
        let s = ids[0];
        let t = ids[nodes - 1];
        let cc = min_cost_flow_cycle_canceling(&net, s, t, target);
        let nsx = min_cost_flow_network_simplex(&net, s, t, target);
        let gt = min_cost_flow_cost_scaling(&net, s, t, target);
        match (cc, nsx, gt) {
            (Ok(a), Ok(b), Ok(c)) => {
                validate(&net, s, t, &a).unwrap();
                validate(&net, s, t, &b).unwrap();
                validate(&net, s, t, &c).unwrap();
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(a.cost, c.cost);
            }
            (
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
            ) => {}
            (a, b, c) => prop_assert!(false, "disagreement: {a:?} vs {b:?} vs {c:?}"),
        }
    }

    /// With lower bounds the solvers still agree; any returned flow honours
    /// every bound.
    #[test]
    fn lower_bounds_agree(dag in random_dag(true), target in 0i64..8) {
        let (net, s, t) = build(&dag);
        let ssp = min_cost_flow(&net, s, t, target);
        let cc = min_cost_flow_cycle_canceling(&net, s, t, target);
        let nsx = min_cost_flow_network_simplex(&net, s, t, target);
        let gt = min_cost_flow_cost_scaling(&net, s, t, target);
        match (ssp, cc, nsx, gt) {
            (Ok(a), Ok(b), Ok(c), Ok(d)) => {
                validate(&net, s, t, &a).unwrap();
                validate(&net, s, t, &b).unwrap();
                validate(&net, s, t, &c).unwrap();
                validate(&net, s, t, &d).unwrap();
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(a.cost, c.cost);
                prop_assert_eq!(a.cost, d.cost);
            }
            (
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
                Err(NetflowError::Infeasible { .. }),
            ) => {}
            (a, b, c, d) => prop_assert!(
                false,
                "solver disagreement: {a:?} vs {b:?} vs {c:?} vs {d:?}"
            ),
        }
    }

    /// The optimal cost is a convex function of the flow target (a classical
    /// property of min-cost flows).
    #[test]
    fn cost_is_convex_in_target(dag in random_dag(false)) {
        let (net, s, t) = build(&dag);
        let cap = max_flow(&net, s, t).unwrap().value;
        let costs: Vec<i64> = (0..=cap)
            .map(|f| min_cost_flow(&net, s, t, f).unwrap().cost)
            .collect();
        for w in costs.windows(3) {
            prop_assert!(w[2] - w[1] >= w[1] - w[0], "non-convex costs: {costs:?}");
        }
    }

    /// Max-flow value bounds min-cost-flow feasibility exactly.
    #[test]
    fn feasible_iff_within_max_flow(dag in random_dag(false), target in 0i64..10) {
        let (net, s, t) = build(&dag);
        let cap = max_flow(&net, s, t).unwrap().value;
        let result = min_cost_flow(&net, s, t, target);
        if target <= cap {
            prop_assert!(result.is_ok());
        } else {
            let infeasible = matches!(result, Err(NetflowError::Infeasible { .. }));
            prop_assert!(infeasible);
        }
    }

    /// Warm-start reoptimisation over a randomized delta sequence: after
    /// every batch of cost/capacity/target deltas, the [`Reoptimizer`]'s
    /// objective and feasibility verdict must match an independent cold
    /// solve, and its flow must validate. Under the `validate` feature this
    /// also re-checks reduced-cost optimality after every delta batch
    /// (inside the warm solver's Dijkstra rounds and final audit).
    #[test]
    fn warm_start_matches_cold_over_delta_sequences(
        dag in random_dag(false),
        steps in proptest::collection::vec(
            // (arc selector, mutate cost?, new cost, mutate cap?, new cap, target)
            (0usize..1024, any::<bool>(), -12i64..12, any::<bool>(), 0i64..6, 0i64..8),
            1..16,
        ),
        first_target in 0i64..6,
    ) {
        let (mut net, s, t) = build(&dag);
        let arcs: Vec<ArcId> = net.arcs().map(|(id, _)| id).collect();
        let mut reopt = Reoptimizer::new();
        let check = |reopt: &mut Reoptimizer, net: &FlowNetwork, f: i64| {
            let warm = reopt.solve(net, s, t, f);
            let cold = min_cost_flow(net, s, t, f);
            match (warm, cold) {
                (Ok(w), Ok(c)) => {
                    validate(net, s, t, &w)?;
                    if w.cost != c.cost {
                        return Err(NetflowError::InvalidSolution {
                            reason: format!("warm cost {} != cold cost {}", w.cost, c.cost),
                        });
                    }
                    Ok(())
                }
                (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {
                    Ok(())
                }
                (w, c) => Err(NetflowError::InvalidSolution {
                    reason: format!("warm/cold verdicts diverged: {w:?} vs {c:?}"),
                }),
            }
        };
        prop_assert!(check(&mut reopt, &net, first_target).is_ok());
        for (sel, mutate_cost, cost, mutate_cap, cap, target) in steps {
            let arc = arcs[sel % arcs.len()];
            if mutate_cost {
                net.set_arc_cost(arc, cost);
            }
            if mutate_cap {
                net.set_arc_capacity(arc, cap).expect("lower bounds are zero");
            }
            if let Err(e) = check(&mut reopt, &net, target) {
                prop_assert!(false, "delta step diverged: {e}");
            }
        }
    }

    /// Every [`Backend`] — the five concrete solvers, the `Auto` policy and
    /// the warm [`Reoptimizer`] — agrees on feasibility and optimal
    /// objective, and every returned flow validates.
    #[test]
    fn every_backend_agrees_on_objective(dag in random_dag(false), target in 0i64..8) {
        let (net, s, t) = build(&dag);
        let mut reopt = Reoptimizer::new();
        let mut results: Vec<(&str, Result<_, NetflowError>)> = Backend::ALL
            .iter()
            .map(|b| (b.name(), b.solve(&net, s, t, target)))
            .collect();
        results.push(("auto", Backend::Auto.solve(&net, s, t, target)));
        results.push(("reopt", reopt.solve(&net, s, t, target)));
        let (base_name, base) = &results[0];
        for (name, result) in &results[1..] {
            match (base, result) {
                (Ok(a), Ok(b)) => {
                    validate(&net, s, t, b).unwrap();
                    prop_assert_eq!(
                        a.cost, b.cost,
                        "{} cost {} != {} cost {}", base_name, a.cost, name, b.cost
                    );
                    prop_assert_eq!(b.value, target);
                }
                (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {}
                (a, b) => prop_assert!(
                    false,
                    "{base_name} and {name} disagree: {a:?} vs {b:?}"
                ),
            }
        }
    }

    /// On unit-capacity networks whose costs carry distinct power-of-two
    /// offsets the optimal flow is *unique* (the offset sum encodes the used
    /// arc set injectively, as in `lemra-core`'s deterministic tie-breaking)
    /// — so every backend must agree arc-by-arc on the placement, not just
    /// on the objective.
    #[test]
    fn backends_agree_on_placements_when_tie_broken(
        dag in random_dag(false),
        target in 1i64..5,
    ) {
        // Σ 2^i over ≤24 arcs < 2^25, so scaling base costs by 2^25 keeps
        // the base objective dominant and the offsets a pure tie-break.
        let mut net = FlowNetwork::new();
        let ids = net.add_nodes(dag.nodes);
        for (i, &(f, t_, _, _, cost)) in dag.arcs.iter().take(24).enumerate() {
            net.add_arc(ids[f], ids[t_], 1, cost * (1i64 << 25) + (1i64 << i))
                .expect("valid arc");
        }
        let (s, t) = (ids[0], ids[dag.nodes - 1]);
        let mut reopt = Reoptimizer::new();
        let base = Backend::Ssp.solve(&net, s, t, target);
        let mut others: Vec<(&str, Result<_, NetflowError>)> = Backend::ALL[1..]
            .iter()
            .map(|b| (b.name(), b.solve(&net, s, t, target)))
            .collect();
        others.push(("reopt", reopt.solve(&net, s, t, target)));
        for (name, result) in others {
            match (&base, result) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(
                        &a.flows, &b.flows,
                        "ssp and {} placed flow differently", name
                    );
                }
                (Err(NetflowError::Infeasible { .. }), Err(NetflowError::Infeasible { .. })) => {}
                (a, b) => prop_assert!(false, "ssp and {name} disagree: {a:?} vs {b:?}"),
            }
        }
    }

    /// Path decomposition covers the full value and every path runs s -> t.
    #[test]
    fn decomposition_covers_value(dag in random_dag(false), target in 1i64..6) {
        let (net, s, t) = build(&dag);
        if let Ok(sol) = min_cost_flow(&net, s, t, target) {
            let paths = sol.decompose_paths(&net, s, t).unwrap();
            prop_assert_eq!(paths.iter().map(|(_, u)| *u).sum::<i64>(), target);
            for (path, units) in &paths {
                prop_assert!(*units > 0);
                prop_assert_eq!(net.arc(path[0]).from, s);
                prop_assert_eq!(net.arc(*path.last().unwrap()).to, t);
                for pair in path.windows(2) {
                    prop_assert_eq!(net.arc(pair[0]).to, net.arc(pair[1]).from);
                }
            }
        }
    }
}
