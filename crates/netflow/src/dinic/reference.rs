//! Test-only reference for [`blocking_flow_admissible`]: the blocking-flow
//! walk without the alive pruning, plus the levelled BFS+DFS fallback it
//! used to run when its first walk pushed nothing. The identity tests below
//! run the SSP phases over both walks and demand identical outcomes, and
//! that the fallback never pushes a unit — the invariant that let the
//! production walk drop it. They also run the phases with alternating and
//! with source-side-only Dijkstra rounds and demand identical outcomes.

use super::blocking_flow_admissible;
use crate::graph::{FlowNetwork, NodeId};
use crate::residual::Residual;
use crate::ssp::{certificate_holds, ssp_phases, transform_into};
use crate::workspace::{SolverWorkspace, INF};
use crate::NetflowError;

/// The unpruned blocking flow: current-arc DFS walks over every admissible
/// head, falling back to [`blocking_flow_levelled`] when they push nothing.
/// Returns the units pushed and, of those, the units the fallback pushed.
fn blocking_flow_unpruned(
    res: &mut Residual,
    s: usize,
    t: usize,
    ws: &mut SolverWorkspace,
    limit: i64,
) -> (i64, i64) {
    let n = res.node_count();
    ws.begin_phase();
    ws.cursor.clear();
    ws.cursor.resize(n, 0);
    let mut total = 0i64;
    while total < limit {
        let pushed = unpruned_dfs_first(res, ws, s, t, limit - total);
        if pushed == 0 {
            break;
        }
        total += pushed;
    }
    if total == 0 {
        let fallback = blocking_flow_levelled(res, s, t, ws, limit);
        return (fallback, fallback);
    }
    ws.pushed_units += total as u64;
    (total, 0)
}

/// One walk of the unpruned fast path: DFS along admissible arcs with
/// per-node current-arc cursors and an on-stack guard (`level` 1 = on the
/// current path, 0 = retired) in the epoch-stamped node state.
fn unpruned_dfs_first(
    res: &mut Residual,
    ws: &mut SolverWorkspace,
    u: usize,
    t: usize,
    limit: i64,
) -> i64 {
    if u == t {
        return limit;
    }
    ws.set_level(u, 1);
    let pu = ws.node[u].potential;
    let epoch = ws.epoch;
    while ws.cursor[u] < res.active_end[u] - res.first_out[u] {
        let slot = (res.first_out[u] + ws.cursor[u]) as usize;
        let sl = res.slots[slot];
        let v = sl.to as usize;
        let stv = ws.node[v];
        if sl.cap > 0
            && !(stv.stamp == epoch && stv.level == 1)
            && stv.potential < INF
            && sl.cost + pu - stv.potential == 0
        {
            let pushed = unpruned_dfs_first(res, ws, v, t, limit.min(sl.cap));
            if pushed > 0 {
                res.push(sl.edge, pushed);
                ws.set_level(u, 0);
                return pushed;
            }
        }
        ws.cursor[u] += 1;
    }
    ws.set_level(u, 0);
    0
}

/// The levelled fallback: BFS level graph over the admissible subgraph,
/// then current-arc DFS along level+1 arcs.
fn blocking_flow_levelled(
    res: &mut Residual,
    s: usize,
    t: usize,
    ws: &mut SolverWorkspace,
    limit: i64,
) -> i64 {
    let n = res.node_count();
    ws.begin_phase();
    ws.set_level(s, 0);
    ws.queue.clear();
    ws.queue.push_back(s as u32);
    let epoch = ws.epoch;
    let mut level_t = u32::MAX;
    while let Some(u) = ws.queue.pop_front() {
        let u = u as usize;
        if u == t || ws.node[u].level >= level_t {
            continue;
        }
        let pu = ws.node[u].potential;
        let lvl = ws.node[u].level + 1;
        for sl in &res.slots[res.active_slots(u)] {
            if sl.cap <= 0 {
                continue;
            }
            let v = sl.to as usize;
            let stv = ws.node[v];
            if stv.stamp == epoch || stv.potential >= INF {
                continue;
            }
            if sl.cost + pu - stv.potential != 0 {
                continue;
            }
            ws.set_level(v, lvl);
            if v == t {
                level_t = lvl;
            }
            ws.queue.push_back(v as u32);
        }
    }
    if level_t == u32::MAX {
        return 0;
    }
    ws.cursor.clear();
    ws.cursor.resize(n, 0);
    let mut total = 0i64;
    while total < limit {
        let pushed = admissible_dfs(res, ws, s, t, limit - total);
        if pushed == 0 {
            break;
        }
        total += pushed;
    }
    ws.pushed_units += total as u64;
    total
}

/// One augmenting walk of the levelled fallback.
fn admissible_dfs(
    res: &mut Residual,
    ws: &mut SolverWorkspace,
    u: usize,
    t: usize,
    limit: i64,
) -> i64 {
    if u == t {
        return limit;
    }
    let pu = ws.node[u].potential;
    let lvl = ws.node[u].level.wrapping_add(1);
    while ws.cursor[u] < res.active_end[u] - res.first_out[u] {
        let slot = (res.first_out[u] + ws.cursor[u]) as usize;
        let sl = res.slots[slot];
        let v = sl.to as usize;
        let stv = ws.node[v];
        if sl.cap > 0
            && stv.stamp == ws.epoch
            && stv.level == lvl
            && sl.cost + pu - stv.potential == 0
        {
            let pushed = admissible_dfs(res, ws, v, t, limit.min(sl.cap));
            if pushed > 0 {
                res.push(sl.edge, pushed);
                return pushed;
            }
        }
        ws.cursor[u] += 1;
    }
    0
}

/// Everything a solve's phases decide: the outcome, the flow on every
/// residual edge pair (supply edges included), the effort counters, and
/// whether the final potentials pass the reduced-cost certificate.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<i64, NetflowError>,
    flows: Vec<i64>,
    dijkstra_rounds: u64,
    pushed_units: u64,
    certified: bool,
}

/// Runs the SSP phases over `walk`, with alternating rounds when
/// `alternate`, else source-side rounds only.
fn run(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    alternate: bool,
    walk: impl FnMut(&mut Residual, usize, usize, &mut SolverWorkspace, i64) -> i64,
) -> Outcome {
    let mut ws = SolverWorkspace::new();
    let mut res = Residual::default();
    let (super_s, super_t, required) = transform_into(net, s, t, target, &mut res);
    let result = ssp_phases(
        &mut res, super_s, super_t, required, &mut ws, alternate, walk,
    );
    let flows = (0..res.edge_count() as u32)
        .step_by(2)
        .map(|e| res.flow_on(e))
        .collect();
    let stats = ws.stats();
    Outcome {
        result,
        flows,
        dijkstra_rounds: stats.dijkstra_rounds,
        pushed_units: stats.pushed_units,
        certified: certificate_holds(&res, &ws.node),
    }
}

/// Solves over `walk` and over the reference walk. Returns the two
/// outcomes and the units the reference's levelled fallback pushed.
fn versus_reference(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    walk: impl FnMut(&mut Residual, usize, usize, &mut SolverWorkspace, i64) -> i64,
) -> (Outcome, Outcome, i64) {
    let mut fallback_units = 0;
    let reference = run(net, s, t, target, true, |res, s, t, ws, limit| {
        let (pushed, fallback) = blocking_flow_unpruned(res, s, t, ws, limit);
        fallback_units += fallback;
        pushed
    });
    (
        run(net, s, t, target, true, walk),
        reference,
        fallback_units,
    )
}

/// Solves with alternating rounds over `walk` and with source-side rounds
/// only over the production walk. Returns the two outcomes.
fn versus_source_side(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    walk: impl FnMut(&mut Residual, usize, usize, &mut SolverWorkspace, i64) -> i64,
) -> (Outcome, Outcome) {
    let source_side = run(net, s, t, target, false, blocking_flow_admissible);
    (run(net, s, t, target, true, walk), source_side)
}

mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A random network over ranked nodes: every arc ascends in rank unless
    /// `back_arcs` adds descending ones (a cyclic residual, so the SPFA
    /// potentials run); `shuffle` maps ranks to node ids through a rotation
    /// so the Kahn pass runs instead of the monotone one.
    #[derive(Debug, Clone)]
    struct Net {
        nodes: usize,
        /// `(from rank, to rank, lower, capacity, cost)`.
        arcs: Vec<(usize, usize, i64, i64, i64)>,
        shuffle: usize,
    }

    fn random_net() -> impl Strategy<Value = Net> {
        (3usize..12, any::<bool>(), any::<bool>()).prop_flat_map(|(nodes, back_arcs, shuffled)| {
            let forward = (0..nodes - 1).prop_flat_map(move |from| {
                (Just(from), from + 1..nodes, 0i64..2, 1i64..4, -2i64..3)
            });
            let back = (1..nodes)
                .prop_flat_map(move |from| (Just(from), 0..from, Just(0i64), 1i64..3, 0i64..3));
            let bypass = (Just(0), Just(nodes - 1), Just(0i64), 1i64..4, Just(0i64));
            (
                proptest::collection::vec(forward, 1..30),
                proptest::collection::vec(back, 0..if back_arcs { 4 } else { 1 }),
                proptest::collection::vec(bypass, 0..2),
                if shuffled { 1..nodes } else { 0..1 },
            )
                .prop_map(move |(mut arcs, back, bypass, shuffle)| {
                    arcs.extend(back);
                    arcs.extend(bypass);
                    Net {
                        nodes,
                        arcs: arcs
                            .into_iter()
                            .map(|(f, t, lower, extra, cost)| (f, t, lower, lower + extra, cost))
                            .collect(),
                        shuffle,
                    }
                })
        })
    }

    fn build(net: &Net) -> (FlowNetwork, NodeId, NodeId) {
        let mut out = FlowNetwork::new();
        let ids = out.add_nodes(net.nodes);
        let id = |rank: usize| ids[(rank + net.shuffle) % net.nodes];
        for &(f, t, lower, cap, cost) in &net.arcs {
            out.add_arc_bounded(id(f), id(t), lower, cap, cost)
                .expect("generated bounds are valid");
        }
        (out, id(0), id(net.nodes - 1))
    }

    proptest! {
        /// The alive-pruned walk pushes exactly what the unpruned walk
        /// pushes: same outcome, same flow on every edge, same Dijkstra
        /// rounds and pushed units; and the unpruned walk's levelled
        /// fallback never pushes a unit. Capacities above 1 let pushes open
        /// zero-reduced-cost two-cycles; the tiny cost range makes ties
        /// common.
        #[test]
        fn pruned_walk_matches_the_unpruned_reference(net in random_net(), target in 0i64..8) {
            let (net, s, t) = build(&net);
            let (pruned, reference, fallback_units) =
                versus_reference(&net, s, t, target, blocking_flow_admissible);
            prop_assert_eq!(pruned, reference);
            prop_assert_eq!(fallback_units, 0);
        }

        /// Alternating source-side and sink-side rounds decide exactly what
        /// source-side rounds alone decide: same outcome, same flow on
        /// every edge, same Dijkstra rounds and pushed units. The final
        /// potentials differ off the shortest paths but pass the
        /// certificate on both sides.
        #[test]
        fn alternating_rounds_match_source_side_rounds(net in random_net(), target in 0i64..8) {
            let (net, s, t) = build(&net);
            let (alternating, source_side) =
                versus_source_side(&net, s, t, target, blocking_flow_admissible);
            if alternating.result.is_ok() {
                prop_assert!(alternating.certified);
            }
            prop_assert_eq!(alternating, source_side);
        }
    }

    /// The identity check is not vacuous: dropping one tight arc from a
    /// tight-in-arc list before phase 0 leaves a shortest path unwalked,
    /// and the extra Dijkstra round it costs shows in the comparison.
    #[test]
    fn a_dropped_tight_arc_breaks_the_identity() {
        let mut net = FlowNetwork::new();
        let [s, a, b, t] = [(); 4].map(|()| net.add_node());
        for (u, v) in [(s, a), (a, t), (s, b), (b, t)] {
            net.add_arc(u, v, 1, 0).unwrap();
        }
        let sink = t.index();
        let (intact, reference, _) = versus_reference(&net, s, t, 2, blocking_flow_admissible);
        assert_eq!(intact, reference);
        assert_eq!(reference.dijkstra_rounds, 0, "phase 0 moves both units");
        let mut corrupted = false;
        let (pruned, reference, _) =
            versus_reference(&net, s, t, 2, |res, s, super_t, ws, limit| {
                if !corrupted {
                    corrupted = true;
                    // `t` lists both `a -> t` and `b -> t`; drop one.
                    let head = ws.pred_head[sink] as usize;
                    ws.pred_head[sink] = ws.pred[head].1;
                }
                blocking_flow_admissible(res, s, super_t, ws, limit)
            });
        assert_eq!(pruned.result, reference.result);
        assert_ne!(pruned, reference);
        assert_eq!(pruned.dijkstra_rounds, 1);
    }

    /// The alternating identity is not vacuous: after phase 0 routes the
    /// free unit through `a`, one sink-side round ties `s → b → t` and
    /// `s → c → t`, and `s` lists both out-arcs. Dropping one leaves a
    /// shortest path unwalked, and the extra round shows.
    #[test]
    fn a_dropped_tight_out_arc_breaks_the_identity() {
        let mut net = FlowNetwork::new();
        let [s, a, b, c, t] = [(); 5].map(|()| net.add_node());
        for (u, v, cost) in [
            (s, a, 0),
            (a, t, 0),
            (s, b, 1),
            (b, t, 0),
            (s, c, 1),
            (c, t, 0),
        ] {
            net.add_arc(u, v, 1, cost).unwrap();
        }
        let source = s.index();
        let (intact, source_side) = versus_source_side(&net, s, t, 3, blocking_flow_admissible);
        assert_eq!(intact, source_side);
        assert_eq!(source_side.dijkstra_rounds, 1, "one round after phase 0");
        let (corrupted, source_side) =
            versus_source_side(&net, s, t, 3, |res, super_s, super_t, ws, limit| {
                if ws.out_lists {
                    // `s` lists both `s -> b` and `s -> c`; drop one.
                    let head = ws.pred_head[source] as usize;
                    ws.pred_head[source] = ws.pred[head].1;
                }
                blocking_flow_admissible(res, super_s, super_t, ws, limit)
            });
        assert_eq!(corrupted.result, source_side.result);
        assert_ne!(corrupted, source_side);
        assert_eq!(corrupted.dijkstra_rounds, 2);
    }
}
