//! Dinic's max-flow algorithm, and the blocking-flow walk of the SSP
//! phases ([`blocking_flow_admissible`]).
//!
//! Dinic is used directly for maximum-flow queries (e.g. feasibility probes
//! and the Chang–Pedram baseline in `lemra-baselines`) and as the
//! feasibility check of the cost-scaling min-cost solver.

use crate::graph::{FlowNetwork, NodeId};
use crate::residual::{idx, Residual};
use crate::ssp::{check_endpoints, solution_from_residual};
use crate::workspace::{SolverWorkspace, NO_PRED};
use crate::{FlowSolution, NetflowError};
use std::collections::VecDeque;

/// Computes a maximum flow from `s` to `t`, ignoring arc costs.
///
/// Arc lower bounds are honoured: the returned flow satisfies every
/// `lower_bound <= flow <= capacity` constraint and maximises the `s`→`t`
/// value among such flows.
///
/// # Errors
///
/// * [`NetflowError::Infeasible`] if the lower bounds admit no feasible flow
///   at all.
/// * [`NetflowError::InvalidArc`] if `s` or `t` are out of range or equal.
///
/// # Examples
///
/// ```
/// use lemra_netflow::{FlowNetwork, max_flow};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, a, t) = (net.add_node(), net.add_node(), net.add_node());
/// net.add_arc(s, a, 3, 0)?;
/// net.add_arc(a, t, 2, 0)?;
/// assert_eq!(max_flow(&net, s, t)?.value, 2);
/// # Ok(())
/// # }
/// ```
pub fn max_flow(net: &FlowNetwork, s: NodeId, t: NodeId) -> Result<FlowSolution, NetflowError> {
    check_endpoints(net, s, t, 0)?;
    let n = net.node_count();

    if !net.has_lower_bounds() {
        let mut res = Residual::from_network(net, 0);
        res.finalize();
        let value = dinic(&mut res, idx(s), idx(t));
        return Ok(solution_from_residual(net, &res, value));
    }

    // Feasibility phase: satisfy lower bounds with a super-source/super-sink
    // flow while a t -> s return edge lets value circulate freely.
    let mut res = Residual::from_network(net, 2);
    let super_s = n;
    let super_t = n + 1;
    let mut excess = vec![0i64; n];
    for (_, arc) in net.arcs() {
        excess[idx(arc.to)] += arc.lower_bound;
        excess[idx(arc.from)] -= arc.lower_bound;
    }
    let return_edge = res.add_edge(idx(t), idx(s), i64::MAX / 8, 0);
    let mut required = 0i64;
    for (v, &e) in excess.iter().enumerate() {
        if e > 0 {
            res.add_edge(super_s, v, e, 0);
            required += e;
        } else if e < 0 {
            res.add_edge(v, super_t, -e, 0);
        }
    }
    res.finalize();
    let satisfied = dinic(&mut res, super_s, super_t);
    if satisfied < required {
        return Err(NetflowError::Infeasible {
            required,
            achieved: satisfied,
        });
    }
    // Remove the return edge (freeze its flow as baseline value) and grow
    // s -> t flow on top.
    let base_value = res.flow_on(return_edge);
    res.set_cap_of(return_edge, 0);
    res.set_cap_of(return_edge ^ 1, 0);
    let extra = dinic(&mut res, idx(s), idx(t));
    Ok(solution_from_residual(net, &res, base_value + extra))
}

/// Core Dinic loop: BFS level graph + DFS blocking flow.
///
/// `res` must be finalized.
pub(crate) fn dinic(res: &mut Residual, s: usize, t: usize) -> i64 {
    let n = res.node_count();
    let mut total = 0i64;
    loop {
        // BFS levels.
        let mut level = vec![u32::MAX; n];
        level[s] = 0;
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for slot in res.active_slots(u) {
                let v = res.slots[slot].to as usize;
                if res.slots[slot].cap > 0 && level[v] == u32::MAX {
                    level[v] = level[u] + 1;
                    q.push_back(v);
                }
            }
        }
        if level[t] == u32::MAX {
            return total;
        }
        let mut iter = vec![0usize; n];
        loop {
            let pushed = dfs(res, &level, &mut iter, s, t, i64::MAX / 8);
            if pushed == 0 {
                break;
            }
            total += pushed;
        }
    }
}

/// Pushes a blocking flow of at most `limit` units from `s` to `t` over the
/// **admissible subgraph**: residual edges with positive capacity and zero
/// reduced cost under the node potentials. Returns the units pushed (0 when `t`
/// is not admissible-reachable).
///
/// The phase first stamps *alive* every node that lies on a shortest `s → t`
/// path, using the tight-arc lists the labelling pass before the phase left
/// in `ws.pred_head`: after a source-side pass
/// ([`dijkstra_settle`](crate::ssp::dijkstra_settle) or the initial
/// potentials) they hold in-arcs and the marking walks them backwards from
/// `t`; after a sink-side round
/// ([`dijkstra_settle_to_sink`](crate::ssp::dijkstra_settle_to_sink)) they
/// hold out-arcs and it walks them forwards from `s`. Either way the alive
/// set is the nodes `v` with `d(v) + d'(v) = d(s, t)`. The phase then runs
/// current-arc DFS walks from `s` that enter alive nodes only — no BFS
/// levelling pass. Any admissible `s → t` path is a shortest path
/// (reduced costs telescope to the same total), so the walk needs no level
/// graph for *optimality*; an on-stack flag keeps each walk acyclic through
/// zero-cost admissible cycles, and persistent cursors retire each arc at
/// most once per phase. The caller guarantees the potentials are exact, so
/// every unit pushed here is a min-cost unit.
///
/// Skipping the dead nodes changes no push. Every arc of an admissible
/// path the walk can take from `s` to `t` is listed, so at phase start
/// every node the walk can enter and that reaches `t` is alive. A push
/// changes arcs only between nodes of its path, all alive, so no dead node
/// the walk can enter ever reaches `t` during the phase: the unpruned walk
/// would only have exhausted its cursor. The first walk starts with fresh
/// cursors, and an exhausted cursor or the on-stack flag both act as
/// "visited", so it is a plain DFS and reaches `t` whenever both ends are
/// alive.
///
/// The two sides' potentials differ only off the alive set: on it both
/// updates add `d(v)`, so the admissible arcs between alive nodes, the
/// cursors rewound and hence every push are the same whichever side
/// labelled last.
pub(crate) fn blocking_flow_admissible(
    res: &mut Residual,
    s: usize,
    t: usize,
    ws: &mut SolverWorkspace,
    limit: i64,
) -> i64 {
    ws.begin_phase();
    let root = if ws.out_lists { s } else { t };
    mark_alive(ws, root, res.node_count());
    if ws.node[s].stamp != ws.epoch || ws.node[t].stamp != ws.epoch {
        return 0;
    }
    let mut total = 0i64;
    while total < limit {
        let pushed = admissible_dfs_first(res, ws, s, t, limit - total);
        if pushed == 0 {
            break;
        }
        total += pushed;
    }
    ws.pushed_units += total as u64;
    total
}

/// Stamps `root` and every node its tight-arc lists reach with the current
/// phase epoch (walk flag 0), and rewinds those nodes' cursors: only they
/// are ever entered by this phase's walks. The root is `t` when the lists
/// hold in-arcs (the marking walks them backwards) and `s` when they hold
/// out-arcs (forwards).
fn mark_alive(ws: &mut SolverWorkspace, root: usize, n: usize) {
    ws.cursor.resize(n, 0);
    ws.set_level(root, 0);
    ws.cursor[root] = 0;
    ws.order.clear();
    ws.order.push(root as u32);
    while let Some(v) = ws.order.pop() {
        let mut cell = ws.pred_head[v as usize];
        while cell != NO_PRED {
            let (u, next) = ws.pred[cell as usize];
            let u = u as usize;
            if ws.node[u].stamp != ws.epoch {
                ws.set_level(u, 0);
                ws.cursor[u] = 0;
                ws.order.push(u as u32);
            }
            cell = next;
        }
    }
}

/// One walk of a blocking-flow phase: DFS along admissible arcs into alive
/// heads with per-node current-arc cursors and an on-stack guard (`level` 1
/// = on the current path, 0 = not) in the epoch-stamped node state.
fn admissible_dfs_first(
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
    // The active prefix can grow mid-phase (pushes activate backward
    // edges), so the bound is re-read every iteration.
    while ws.cursor[u] < res.active_end[u] - res.first_out[u] {
        let slot = (res.first_out[u] + ws.cursor[u]) as usize;
        let sl = res.slots[slot];
        let v = sl.to as usize;
        let stv = ws.node[v];
        if sl.cap > 0 && stv.stamp == epoch && stv.level != 1 && sl.cost + pu - stv.potential == 0 {
            let pushed = admissible_dfs_first(res, ws, v, t, limit.min(sl.cap));
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

fn dfs(
    res: &mut Residual,
    level: &[u32],
    iter: &mut [usize],
    u: usize,
    t: usize,
    limit: i64,
) -> i64 {
    if u == t {
        return limit;
    }
    // The active prefix can grow mid-phase (pushes activate backward
    // edges), so the bound is re-read every iteration.
    while iter[u] < (res.active_end[u] - res.first_out[u]) as usize {
        let slot = res.first_out[u] as usize + iter[u];
        let cap = res.slots[slot].cap;
        let v = res.slots[slot].to as usize;
        if cap > 0 && level[v] == level[u] + 1 {
            let pushed = dfs(res, level, iter, v, t, limit.min(cap));
            if pushed > 0 {
                res.push(res.slots[slot].edge, pushed);
                return pushed;
            }
        }
        iter[u] += 1;
    }
    0
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_bipartite() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let l: Vec<_> = (0..3).map(|_| net.add_node()).collect();
        let r: Vec<_> = (0..3).map(|_| net.add_node()).collect();
        let t = net.add_node();
        for &u in &l {
            net.add_arc(s, u, 1, 0).unwrap();
        }
        for &v in &r {
            net.add_arc(v, t, 1, 0).unwrap();
        }
        // Perfect matching exists.
        net.add_arc(l[0], r[0], 1, 0).unwrap();
        net.add_arc(l[0], r[1], 1, 0).unwrap();
        net.add_arc(l[1], r[0], 1, 0).unwrap();
        net.add_arc(l[2], r[2], 1, 0).unwrap();
        let sol = max_flow(&net, s, t).unwrap();
        assert_eq!(sol.value, 3);
    }

    #[test]
    fn respects_lower_bounds() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_arc_bounded(s, a, 2, 5, 0).unwrap();
        net.add_arc(a, t, 3, 0).unwrap();
        let sol = max_flow(&net, s, t).unwrap();
        assert_eq!(sol.value, 3);
        assert!(sol.flows[0] >= 2);
    }

    #[test]
    fn infeasible_lower_bound() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_arc_bounded(s, a, 4, 5, 0).unwrap();
        net.add_arc(a, t, 3, 0).unwrap(); // can't drain 4 units
        assert!(matches!(
            max_flow(&net, s, t),
            Err(NetflowError::Infeasible { .. })
        ));
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        let sol = max_flow(&net, s, t).unwrap();
        assert_eq!(sol.value, 0);
    }
}
