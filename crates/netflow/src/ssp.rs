//! Successive-shortest-path min-cost flow with node potentials.
//!
//! Initial potentials come from a single O(V+E) relaxation pass in
//! topological order when the positive-capacity residual graph is a DAG
//! (always true for the allocation networks of `lemra-core`), and from SPFA
//! with a deque otherwise (the general case, including negative arc costs on
//! cyclic networks). After that, reduced costs are non-negative and each
//! phase runs one Dijkstra round over a monotone radix heap, folds its exact
//! distances into the potentials and pushes a blocking flow over the
//! zero-reduced-cost arcs. The rounds alternate sides: one labels distances
//! from the source and settles every node within the sink's distance, the
//! next labels distances to the sink and settles every node within the
//! source's ([`dijkstra_settle_to_sink`]). Each round's potentials make the
//! other side's search goal-directed, so it settles only nodes near a
//! shortest path. Every labelling pass also records each node's tight arcs
//! towards the side it started from, so a phase's walk visits only nodes on
//! a shortest path; see [`ssp_run`].
//!
//! All per-node scratch state lives in a [`SolverWorkspace`] reused across
//! augmentations and across solves; see [`min_cost_flow_with`].
//!
//! Arc lower bounds and the fixed flow requirement are reduced to a plain
//! min-cost max-flow between a synthetic super-source and super-sink using
//! the standard excess/deficit transformation; see
//! [`min_cost_flow`] for the contract.

use crate::graph::{FlowNetwork, NodeId};
use crate::residual::{idx, Residual};
use crate::stamp::CacheStamp;
use crate::workspace::{with_thread_workspace, NodeState, SolverWorkspace, INF, NO_PRED};
use crate::{FlowSolution, NetflowError};

/// Solves for a minimum-cost flow of **exactly** `target` units from `s` to
/// `t`, honouring arc lower bounds.
///
/// The network may contain negative arc costs but must not contain a
/// directed cycle of negative total cost with positive capacity (the
/// networks produced by `lemra-core` are DAGs, so this always holds there).
///
/// Scratch memory is reused across calls through a per-thread workspace; to
/// control the workspace explicitly (e.g. one per worker in a hand-rolled
/// thread pool), use [`min_cost_flow_with`].
///
/// # Errors
///
/// * [`NetflowError::Infeasible`] if no feasible flow of value `target`
///   satisfying all lower bounds exists.
/// * [`NetflowError::NegativeCycle`] if a negative-cost cycle reachable from
///   the source is detected; use
///   [`min_cost_flow_cost_scaling`](crate::min_cost_flow_cost_scaling)
///   for such networks.
/// * [`NetflowError::InvalidArc`] / [`NetflowError::Overflow`] if
///   [`FlowNetwork::validate_input`] rejects the instance (bad endpoints,
///   self-loops, negative target, overflow-prone magnitudes).
/// * [`NetflowError::BudgetExceeded`] if a [`SolveBudget`](crate::SolveBudget)
///   installed on the workspace runs out before the solve converges.
/// * [`NetflowError::InvalidSolution`] if the feasibility-and-optimality
///   certificate fails (a solver bug, never a property of the input).
///
/// # Examples
///
/// ```
/// use lemra_netflow::{FlowNetwork, min_cost_flow};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, a, b, t) = (net.add_node(), net.add_node(), net.add_node(), net.add_node());
/// net.add_arc(s, a, 1, 0)?;
/// net.add_arc(s, b, 1, 0)?;
/// net.add_arc(a, t, 1, 5)?;
/// net.add_arc(b, t, 1, -2)?;
/// let sol = min_cost_flow(&net, s, t, 1)?;
/// assert_eq!(sol.cost, -2); // prefers the negative-cost route
/// # Ok(())
/// # }
/// ```
pub fn min_cost_flow(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
) -> Result<FlowSolution, NetflowError> {
    with_thread_workspace(|ws| min_cost_flow_with(net, s, t, target, ws))
}

/// [`min_cost_flow`] with an explicit [`SolverWorkspace`].
///
/// Identical contract; the workspace's buffers are reused across calls,
/// which removes all per-solve allocation beyond the residual graph itself.
/// The answer is checked by an O(V + E) feasibility-and-optimality
/// certificate before it is returned.
///
/// # Errors
///
/// Same as [`min_cost_flow`].
pub fn min_cost_flow_with(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    ws: &mut SolverWorkspace,
) -> Result<FlowSolution, NetflowError> {
    check_endpoints_with(net, s, t, target, ws)?;

    // The guard returns the arena to the pool even if the solve panics, so
    // a contained panic (see `ResilientSolver`) cannot leak the buffers.
    let mut guard = ws.lease_arena();
    let (res, ws) = guard.parts();
    let (super_s, super_t, required) = transform_into(net, s, t, target, res);

    let pushed = ssp_run(res, super_s, super_t, required, ws)?;
    if pushed < required {
        return Err(NetflowError::Infeasible {
            required,
            achieved: pushed,
        });
    }
    let sol = solution_from_residual(net, res, target);
    certify(net, s, t, res, ws, &sol)?;
    Ok(sol)
}

/// The O(V + E) certificate of every SSP and
/// [`Reoptimizer`](crate::Reoptimizer) answer. `sol` must be a feasible
/// flow of its value: every arc within `0 ≤ flow − lower ≤ capacity −
/// lower`, conservation at every node but `s` and `t`, and the claimed
/// value and cost ([`validate`](crate::validate)). And every
/// positive-capacity residual edge between reachable nodes must have a
/// non-negative reduced cost under the final potentials
/// ([`certificate_holds`]), so the flow is minimum-cost at its value.
///
/// # Errors
///
/// [`NetflowError::InvalidSolution`] when either half fails.
pub(crate) fn certify(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    res: &Residual,
    ws: &SolverWorkspace,
    sol: &FlowSolution,
) -> Result<(), NetflowError> {
    crate::validate(net, s, t, sol)?;
    if certificate_holds(res, &ws.node) {
        Ok(())
    } else {
        Err(NetflowError::InvalidSolution {
            reason: "optimality certificate failed: a residual edge has negative \
                     reduced cost under the final potentials"
                .to_owned(),
        })
    }
}

/// The O(E) check behind [`certify`]. Nodes the initial potentials left at
/// `INF` are unreachable from the source, and pushes only ever add residual
/// edges between reachable nodes, so they stay out of every augmenting path
/// and are exempt.
pub(crate) fn certificate_holds(res: &Residual, node: &[NodeState]) -> bool {
    (0..res.node_count()).all(|u| {
        let pu = node[u].potential;
        pu >= INF
            || res.slots[res.active_slots(u)].iter().all(|sl| {
                let pv = node[sl.to as usize].potential;
                sl.cap <= 0 || pv >= INF || sl.cost + pu - pv >= 0
            })
    })
}

/// Excess/deficit transformation shared by the SSP-family solvers, built
/// into a caller-provided [`Residual`] arena (its buffers are reused): every
/// lower bound `l` on arc `(u, v)` pre-routes `l` units, leaving `v` with
/// excess `+l` and `u` with deficit `-l`. The requirement "exactly `target`
/// units from `s` to `t`" is a virtual arc `t -> s` with lower bound =
/// capacity = `target`. Returns `(super_s, super_t, required)`: the
/// synthetic super-source and super-sink appended after the network's
/// nodes, and the total excess the solve must route between them.
pub(crate) fn transform_into(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    res: &mut Residual,
) -> (usize, usize, i64) {
    res.build_transformed(net, idx(s), idx(t), target)
}

/// Reconstructs a [`FlowSolution`] (adding back lower bounds) from a solved
/// residual graph.
pub(crate) fn solution_from_residual(
    net: &FlowNetwork,
    res: &Residual,
    value: i64,
) -> FlowSolution {
    let mut flows = Vec::with_capacity(net.arc_count());
    let mut cost = 0i64;
    for (i, arc) in net.arcs_slice().iter().enumerate() {
        let f = res.flow_on(res.edge_of_arc[i]) + arc.lower_bound;
        cost += arc.cost * f;
        flows.push(f);
    }
    FlowSolution { flows, value, cost }
}

/// Shared solve-entry validation: delegates to
/// [`FlowNetwork::validate_input`] so every backend rejects malformed
/// instances identically before building a residual graph.
pub(crate) fn check_endpoints(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
) -> Result<(), NetflowError> {
    net.validate_input(s, t, target)
}

/// [`check_endpoints`] with the per-arc scan memoised in the workspace: the
/// O(1) request checks always run, but the O(arcs) invariant/overflow sweep
/// is skipped when this workspace already validated the same network
/// contents for the same `(s, t)` — sweeps and benches re-solving one
/// network hit that path on every solve after the first.
pub(crate) fn check_endpoints_with(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    ws: &mut SolverWorkspace,
) -> Result<(), NetflowError> {
    net.validate_request(s, t, target)?;
    let stamp = CacheStamp::of(net, s, t);
    let achievable = match ws.validate_cache {
        Some((cached, a)) if cached == stamp => a,
        _ => {
            let a = net.scan_arcs(s, t)?;
            ws.validate_cache = Some((stamp, a));
            a
        }
    };
    if target > achievable {
        return Err(NetflowError::Infeasible {
            required: target,
            achieved: achievable,
        });
    }
    Ok(())
}

/// Runs primal-dual blocking-flow phases on `res` until `target` units have
/// moved from `s` to `t` or `t` becomes unreachable. Returns the units
/// moved.
///
/// Each phase labels every node that can lie on a shortest path exactly,
/// with a Dijkstra round from the source ([`dijkstra_settle`]) or from the
/// sink ([`dijkstra_settle_to_sink`]), folds those *exact* distances into
/// the potentials, and then pushes a blocking flow over the admissible
/// subgraph — the arcs whose reduced cost is zero. Any admissible `s → t`
/// path telescopes to reduced length exactly `dist_t`, i.e. it is a true
/// shortest path, so the blocking flow sends many shortest paths per
/// Dijkstra round instead of one; exhausting the admissible subgraph
/// guarantees the next round's `dist_t` is strictly larger, so the phase
/// count is bounded by the number of distinct shortest-path lengths.
///
/// The labelling pass before each phase (the initial potentials for phase
/// 0, the round's Dijkstra after that) leaves every node's tight arcs in
/// the workspace, and the walk is confined to the nodes those lists connect
/// to `t` or to `s`; see
/// [`blocking_flow_admissible`](crate::dinic::blocking_flow_admissible).
///
/// After phase 0 the rounds alternate sides, starting from the sink. Both
/// sides leave the same potentials on every node of a shortest path, so
/// the walks, and hence the flows and round counts, are exactly those of
/// source-side rounds alone; only the number of settled nodes differs.
///
/// `res` must be finalized; `ws` is prepared here.
pub(crate) fn ssp_run(
    res: &mut Residual,
    s: usize,
    t: usize,
    target: i64,
    ws: &mut SolverWorkspace,
) -> Result<i64, NetflowError> {
    ssp_phases(
        res,
        s,
        t,
        target,
        ws,
        true,
        crate::dinic::blocking_flow_admissible,
    )
}

/// [`ssp_run`] with the round sides and the blocking-flow walk as
/// parameters, so tests can run the same phases with source-side rounds
/// only, or over a reference walk, and compare. `alternate` false runs
/// every round from the source.
pub(crate) fn ssp_phases(
    res: &mut Residual,
    s: usize,
    t: usize,
    target: i64,
    ws: &mut SolverWorkspace,
    alternate: bool,
    mut blocking_flow: impl FnMut(&mut Residual, usize, usize, &mut SolverWorkspace, i64) -> i64,
) -> Result<i64, NetflowError> {
    ws.prepare(res.node_count());
    initial_potentials(res, s, ws)?;
    let budget = ws.budget;
    let mut rounds = 0u64;
    let mut flow = 0i64;
    // Phase 0 needs no Dijkstra round at all: the initial potentials *are*
    // exact shortest distances, so the zero-reduced-cost subgraph is already
    // the shortest-path DAG and a blocking flow can run on it directly. On
    // the unit-ish targets the allocator produces this one phase usually
    // finishes the whole solve. It still counts against the round budget, so
    // a zero-round budget trips before any flow moves.
    if flow < target && ws.node[t].potential < INF {
        budget.check_rounds("ssp", "augment", rounds)?;
        rounds += 1;
        flow += blocking_flow(res, s, t, ws, target - flow);
    }
    let mut from_sink = alternate;
    while flow < target {
        budget.check_rounds("ssp", "augment", rounds)?;
        rounds += 1;
        if from_sink {
            let dist_s = dijkstra_settle_to_sink(res, s, t, ws);
            if dist_s >= INF {
                break;
            }
            update_potentials_to_sink(ws, dist_s);
        } else {
            let dist_t = dijkstra_settle(res, s, t, ws);
            if dist_t >= INF {
                break;
            }
            update_potentials(ws, dist_t);
        }
        from_sink = alternate && !from_sink;
        let pushed = blocking_flow(res, s, t, ws, target - flow);
        if pushed == 0 {
            // A shortest path exists, so exact potentials admit at least
            // one unit; pushing none means stale lists or cursors, and
            // another round would find the same path forever.
            return Err(NetflowError::InvalidSolution {
                reason: "a blocking-flow phase pushed no flow although the sink is reachable"
                    .to_owned(),
            });
        }
        flow += pushed;
    }
    Ok(flow)
}

/// Computes initial shortest-path potentials from `s` over positive-capacity
/// residual edges, writing them into `ws.potential` (`INF` = unreachable),
/// and every node's tight in-arcs into `ws.pred_head` / `ws.pred`, which
/// the blocking flow of phase 0 walks.
///
/// When the positive-capacity subgraph is a DAG (detected with Kahn's
/// algorithm), one relaxation pass in topological order suffices — O(V+E).
/// Otherwise SPFA with a deque handles negative costs on cyclic networks and
/// reports negative cycles.
pub(crate) fn initial_potentials(
    res: &Residual,
    s: usize,
    ws: &mut SolverWorkspace,
) -> Result<(), NetflowError> {
    potentials_from(res, Some(s), ws)
}

/// Computes a *valid* potential function over positive-capacity residual
/// edges: every arc satisfies `cost + π(u) − π(v) ≥ 0`, with every node
/// finite. Equivalent to shortest paths from a virtual source wired to all
/// nodes at cost 0, so unlike [`initial_potentials`] it never leaves
/// unreachable nodes at `INF` — the form the cost-scaling warm start needs,
/// where reachability from the super-source is irrelevant but validity must
/// hold on every arc.
pub(crate) fn valid_potentials(
    res: &Residual,
    ws: &mut SolverWorkspace,
) -> Result<(), NetflowError> {
    potentials_from(res, None, ws)
}

/// Lowers `v`'s label to `nd` through the arc `u → v` if that is smaller,
/// keeping `v`'s tight-in-arc list (a drop resets it to `[u]`, a tie adds
/// `u`). Returns whether the label dropped.
#[inline]
fn relax_label(ws: &mut SolverWorkspace, u: usize, v: usize, nd: i64) -> bool {
    let dv = ws.node[v].potential;
    if nd < dv {
        ws.node[v].potential = nd;
        ws.add_pred(v, u, true);
        true
    } else {
        if nd == dv {
            ws.add_pred(v, u, false);
        }
        false
    }
}

/// Shared body: `Some(s)` seeds single-source distances, `None` seeds every
/// node at 0 (multi-source). Every pass relaxes through [`relax_label`], so
/// each finished label's tight in-arcs are listed: the DAG passes scan each
/// tail once with its final label, and SPFA rescans a tail after every drop,
/// which resets the lists of the heads it lowers.
fn potentials_from(
    res: &Residual,
    source: Option<usize>,
    ws: &mut SolverWorkspace,
) -> Result<(), NetflowError> {
    let n = res.node_count();
    ws.pred_head[..n].fill(NO_PRED);
    ws.pred.clear();
    ws.out_lists = false;
    let seed = |ws: &mut SolverWorkspace| match source {
        Some(s) => {
            for st in &mut ws.node[..n] {
                st.potential = INF;
            }
            ws.node[s].potential = 0;
        }
        None => {
            for st in &mut ws.node[..n] {
                st.potential = 0;
            }
        }
    };

    if res.monotone {
        // Fresh transformed graph whose network arcs all ascend in node
        // index: `[super_s, 0, 1, ..]` is already a topological order of the
        // positive-capacity subgraph (supply arcs leave the super-source
        // before every regular node and enter the super-sink after), so one
        // relaxation pass in that order replaces Kahn's algorithm. This is
        // the common case for the allocator's layered networks.
        seed(ws);
        for u in std::iter::once(n - 2).chain(0..n - 2) {
            let du = ws.node[u].potential;
            if du >= INF {
                continue;
            }
            for sl in &res.slots[res.active_slots(u)] {
                if sl.cap > 0 {
                    relax_label(ws, u, sl.to as usize, du + sl.cost);
                }
            }
        }
        return Ok(());
    }

    // Kahn's algorithm over edges with residual capacity. Positive-capacity
    // edges all live in the active prefixes (dormant slots are ≤ 0 by the
    // prefix invariant), so scanning active slots visits half the edge array
    // of a fresh graph.
    ws.indegree[..n].fill(0);
    for u in 0..n {
        for slot in res.active_slots(u) {
            if res.slots[slot].cap > 0 {
                ws.indegree[res.slots[slot].to as usize] += 1;
            }
        }
    }
    ws.queue.clear();
    for v in 0..n {
        if ws.indegree[v] == 0 {
            ws.queue.push_back(v as u32);
        }
    }
    ws.order.clear();
    while let Some(u) = ws.queue.pop_front() {
        ws.order.push(u);
        for slot in res.active_slots(u as usize) {
            if res.slots[slot].cap <= 0 {
                continue;
            }
            let v = res.slots[slot].to as usize;
            ws.indegree[v] -= 1;
            if ws.indegree[v] == 0 {
                ws.queue.push_back(v as u32);
            }
        }
    }

    seed(ws);

    if ws.order.len() == n {
        // DAG: one relaxation pass in topological order.
        for i in 0..ws.order.len() {
            let u = ws.order[i] as usize;
            let du = ws.node[u].potential;
            if du >= INF {
                continue;
            }
            for sl in &res.slots[res.active_slots(u)] {
                if sl.cap > 0 {
                    relax_label(ws, u, sl.to as usize, du + sl.cost);
                }
            }
        }
        return Ok(());
    }

    // Cyclic: SPFA with a deque (small-label-first) and enqueue counting for
    // negative-cycle detection.
    ws.queue.clear();
    ws.in_queue[..n].fill(false);
    ws.enqueues[..n].fill(0);
    for v in 0..n {
        if ws.node[v].potential < INF {
            ws.queue.push_back(v as u32);
            ws.in_queue[v] = true;
            ws.enqueues[v] = 1;
        }
    }
    let limit = n as u32 + 1;
    while let Some(u) = ws.queue.pop_front() {
        let u = u as usize;
        ws.in_queue[u] = false;
        let du = ws.node[u].potential;
        for slot in res.active_slots(u) {
            if res.slots[slot].cap <= 0 {
                continue;
            }
            let v = res.slots[slot].to as usize;
            let nd = du + res.slots[slot].cost;
            if relax_label(ws, u, v, nd) && !ws.in_queue[v] {
                ws.enqueues[v] += 1;
                if ws.enqueues[v] > limit {
                    return Err(NetflowError::NegativeCycle);
                }
                // Small-label-first: likely-final labels jump the queue.
                if ws
                    .queue
                    .front()
                    .is_some_and(|&f| nd < ws.node[f as usize].potential)
                {
                    ws.queue.push_front(v as u32);
                } else {
                    ws.queue.push_back(v as u32);
                }
                ws.in_queue[v] = true;
            }
        }
    }
    Ok(())
}

/// A Dijkstra round over reduced costs that keeps settling until every node
/// within the sink's distance is exact: popping continues through ties and
/// stops only once a popped key exceeds the sink's settled distance. The
/// potentials updated from these distances are therefore *exact* for every
/// node that can lie on a shortest path, which is what makes zero reduced
/// cost a reliable admissibility test for the blocking-flow phase —
/// early-terminated rounds leave tentative labels whose reduced-cost ties
/// are artifacts.
///
/// Returns the sink's distance (`INF` if unreachable). Does not build the
/// parent tree: callers route flow through the admissible subgraph instead
/// of a single parent path. Instead every relaxation keeps the head's
/// tight-in-arc list (`<` resets it, `==` adds the tail, settled heads
/// included), so after the round each node within `dist_t` lists exactly
/// the positive-capacity arcs `u → v` with `d(u) + reduced = d(v)`: such an
/// arc's tail was scanned at its final label, and `d(v)` never drops below
/// that value afterwards, so no later reset drops it.
///
/// Run after a sink-side round, whose potentials make each node's reduced
/// distance from `s` its detour over a shortest path, the round settles
/// only nodes near the shortest paths; see [`dijkstra_settle_to_sink`].
pub(crate) fn dijkstra_settle(res: &Residual, s: usize, t: usize, ws: &mut SolverWorkspace) -> i64 {
    ws.begin_round();
    ws.out_lists = false;
    ws.set_dist(s, 0);
    ws.pred_head[s] = NO_PRED;
    ws.heap.push(0, s as u32);
    let mut dist_t = INF;
    while let Some((d, u)) = ws.pop_frontier() {
        if d > dist_t {
            break;
        }
        let u = u as usize;
        debug_assert_eq!(d, ws.dist_of(u), "the frontier pops live labels only");
        ws.settled_nodes += 1;
        if u == t {
            dist_t = d;
            continue;
        }
        let pu = ws.node[u].potential;
        if pu >= INF {
            continue;
        }
        for sl in &res.slots[res.active_slots(u)] {
            if sl.cap <= 0 {
                continue;
            }
            let v = sl.to as usize;
            if ws.node[v].potential >= INF {
                // Nodes the initialisation proved unreachable cannot carry
                // flow to t; new residual edges only appear along augmented
                // (reachable) paths, so skipping them is safe.
                continue;
            }
            let reduced = sl.cost + pu - ws.node[v].potential;
            debug_assert!(reduced >= 0, "negative reduced cost");
            let nd = d + reduced;
            let dv = ws.dist_of(v);
            if nd < dv {
                ws.set_dist(v, nd);
                ws.heap.push(nd, v as u32);
                ws.add_pred(v, u, true);
            } else if nd == dv {
                ws.add_pred(v, u, false);
            }
        }
    }
    dist_t
}

/// Folds the round's distances into the potentials.
///
/// With early termination only nodes settled before `t` have exact
/// distances; every other node's true distance is at least `dist_t`, so
/// `min(dist, dist_t)` is a valid (and standard) update that keeps all
/// reduced costs non-negative.
pub(crate) fn update_potentials(ws: &mut SolverWorkspace, dist_t: i64) {
    let epoch = ws.epoch;
    for st in &mut ws.node {
        if st.potential < INF {
            let d = if st.stamp == epoch {
                st.dist.min(dist_t)
            } else {
                dist_t
            };
            st.potential += d;
        }
    }
}

/// The mirror of [`dijkstra_settle`]: a Dijkstra round from `t` over
/// residual in-arcs that labels `d'(v)`, the reduced distance from `v` to
/// `t`, and settles every node with `d' ≤ d'(s)`, ties included. Returns
/// `d'(s)` (`INF` if `s` cannot reach `t`).
///
/// The in-arcs of `v` are the partners of the edges in `v`'s whole slot
/// range: edge `e = v → u` in a slot means `e ^ 1 = u → v`, at cost
/// `-cost` and with capacity `pair_cap[e >> 1] − cap`. Every relaxation
/// keeps the tail's tight-*out*-arc list (`<` resets it, `==` adds the
/// head), so after the round each node within `d'(s)` lists exactly the
/// positive-capacity arcs `u → v` with `d'(u) = reduced + d'(v)`.
///
/// After a source-side round every node that round settled has its exact
/// distance from `s` as its potential, so its reduced distance to `t` is
/// its detour over a shortest path: this search settles only nodes near
/// the shortest paths, where a source-side one would settle nearly every
/// node, the sink being the farthest.
pub(crate) fn dijkstra_settle_to_sink(
    res: &Residual,
    s: usize,
    t: usize,
    ws: &mut SolverWorkspace,
) -> i64 {
    ws.begin_round();
    ws.out_lists = true;
    if ws.node[t].potential >= INF {
        return INF;
    }
    ws.set_dist(t, 0);
    ws.pred_head[t] = NO_PRED;
    ws.heap.push(0, t as u32);
    let mut dist_s = INF;
    while let Some((d, v)) = ws.pop_frontier() {
        if d > dist_s {
            break;
        }
        let v = v as usize;
        debug_assert_eq!(d, ws.dist_of(v), "the frontier pops live labels only");
        ws.settled_nodes += 1;
        if v == s {
            dist_s = d;
            continue;
        }
        let pv = ws.node[v].potential;
        for sl in &res.slots[res.all_slots(v)] {
            if res.pair_cap[(sl.edge >> 1) as usize] - sl.cap <= 0 {
                continue;
            }
            let u = sl.to as usize;
            let pu = ws.node[u].potential;
            if pu >= INF {
                continue;
            }
            let reduced = pu - sl.cost - pv;
            debug_assert!(reduced >= 0, "negative reduced cost");
            let nd = d + reduced;
            let du = ws.dist_of(u);
            if nd < du {
                ws.set_dist(u, nd);
                ws.heap.push(nd, u as u32);
                ws.add_pred(u, v, true);
            } else if nd == du {
                ws.add_pred(u, v, false);
            }
        }
    }
    dist_s
}

/// Folds a sink-side round's distances into the potentials:
/// `π(v) += d'(s) − min(d'(v), d'(s))`, unlabelled nodes counting as
/// `d'(s)`. This is the mirror of [`update_potentials`], so it keeps every
/// reduced cost non-negative. On a node of a shortest path `d(v) + d'(v) =
/// d'(s)`, so there it adds exactly the source-side update's `d(v)`, and
/// reduced costs between such nodes come out the same on both sides.
pub(crate) fn update_potentials_to_sink(ws: &mut SolverWorkspace, dist_s: i64) {
    let epoch = ws.epoch;
    for st in &mut ws.node {
        if st.potential < INF && st.stamp == epoch && st.dist < dist_s {
            st.potential += dist_s - st.dist;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_certificate_rejects_a_violated_edge() {
        let mut res = Residual::new(3);
        res.add_edge(0, 1, 1, 5);
        res.add_edge(1, 2, 1, 5);
        res.finalize();
        let mut node = vec![
            NodeState {
                potential: 0,
                dist: INF,
                stamp: 0,
                level: 0,
            };
            3
        ];
        node[1].potential = 5;
        node[2].potential = 10;
        assert!(certificate_holds(&res, &node));
        // Edge 1 -> 2 at reduced cost 5 + 5 - 11 < 0.
        node[2].potential = 11;
        assert!(!certificate_holds(&res, &node));
        // Unreachable heads are exempt.
        node[2].potential = INF;
        assert!(certificate_holds(&res, &node));
    }

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
        // s -> a -> t (cost 1+1), s -> b -> t (cost 3+3), caps 1 each
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 1).unwrap();
        net.add_arc(a, t, 1, 1).unwrap();
        net.add_arc(s, b, 1, 3).unwrap();
        net.add_arc(b, t, 1, 3).unwrap();
        (net, s, t)
    }

    #[test]
    fn picks_cheaper_path_first() {
        let (net, s, t) = diamond();
        let sol = min_cost_flow(&net, s, t, 1).unwrap();
        assert_eq!(sol.cost, 2);
        assert_eq!(sol.value, 1);
        let sol2 = min_cost_flow(&net, s, t, 2).unwrap();
        assert_eq!(sol2.cost, 8);
    }

    #[test]
    fn infeasible_when_target_exceeds_capacity() {
        let (net, s, t) = diamond();
        let err = min_cost_flow(&net, s, t, 3).unwrap_err();
        assert!(matches!(err, NetflowError::Infeasible { .. }));
    }

    #[test]
    fn zero_target_is_trivially_feasible() {
        let (net, s, t) = diamond();
        let sol = min_cost_flow(&net, s, t, 0).unwrap();
        assert_eq!(sol.cost, 0);
        assert!(sol.flows.iter().all(|&f| f == 0));
    }

    #[test]
    fn negative_costs_on_dag() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 2).unwrap();
        net.add_arc(a, t, 1, -10).unwrap();
        net.add_arc(s, b, 1, 0).unwrap();
        net.add_arc(b, t, 1, 0).unwrap();
        let sol = min_cost_flow(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, -8);
    }

    #[test]
    fn lower_bound_forces_expensive_arc() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc_bounded(s, a, 1, 1, 100).unwrap();
        net.add_arc(a, t, 1, 0).unwrap();
        net.add_arc(s, b, 1, 0).unwrap();
        net.add_arc(b, t, 1, 0).unwrap();
        // Without the lower bound a single unit would route via b (cost 0).
        let sol = min_cost_flow(&net, s, t, 1).unwrap();
        assert_eq!(sol.cost, 100);
        assert_eq!(sol.flows[0], 1);
        assert_eq!(sol.value, 1);
    }

    #[test]
    fn lower_bound_infeasible_without_connecting_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        // Arc a->b demands a unit but nothing feeds node a.
        net.add_arc_bounded(a, b, 1, 1, 0).unwrap();
        net.add_arc(s, t, 1, 0).unwrap();
        let err = min_cost_flow(&net, s, t, 1).unwrap_err();
        assert!(matches!(err, NetflowError::Infeasible { .. }));
    }

    #[test]
    fn negative_cycle_detected() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, b, 1, -5).unwrap();
        net.add_arc(b, a, 1, -5).unwrap();
        net.add_arc(a, t, 1, 0).unwrap();
        let err = min_cost_flow(&net, s, t, 1).unwrap_err();
        assert!(matches!(err, NetflowError::NegativeCycle));
    }

    #[test]
    fn rejects_equal_endpoints() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        assert!(min_cost_flow(&net, s, s, 1).is_err());
    }

    #[test]
    fn bypass_arc_absorbs_excess_flow() {
        // Mirrors the allocator's s->t bypass: target larger than the useful
        // network, excess routed at cost 0.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, t, 1, -4).unwrap();
        net.add_arc(s, t, 10, 0).unwrap();
        let sol = min_cost_flow(&net, s, t, 8).unwrap();
        assert_eq!(sol.cost, -4);
        assert_eq!(sol.flows[2], 7);
    }

    #[test]
    fn cyclic_positive_network_uses_spfa_path() {
        // A positive-capacity cycle (a <-> b) forces the SPFA fallback; the
        // optimum is still found.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 2, 1).unwrap();
        net.add_arc(a, b, 2, 1).unwrap();
        net.add_arc(b, a, 2, 1).unwrap();
        net.add_arc(b, t, 2, 1).unwrap();
        net.add_arc(a, t, 2, 9).unwrap();
        let sol = min_cost_flow(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, 6);
    }

    #[test]
    fn explicit_workspace_reuse_across_solves() {
        let mut ws = SolverWorkspace::new();
        let (net, s, t) = diamond();
        for _ in 0..3 {
            assert_eq!(min_cost_flow_with(&net, s, t, 2, &mut ws).unwrap().cost, 8);
        }
        // A differently-sized problem right after: buffers must resize.
        let mut net2 = FlowNetwork::new();
        let nodes = net2.add_nodes(20);
        for w in nodes.windows(2) {
            net2.add_arc(w[0], w[1], 3, 1).unwrap();
        }
        let sol = min_cost_flow_with(&net2, nodes[0], nodes[19], 3, &mut ws).unwrap();
        assert_eq!(sol.cost, 3 * 19);
        assert_eq!(min_cost_flow_with(&net, s, t, 1, &mut ws).unwrap().cost, 2);
    }

    #[test]
    fn certificate_rejects_a_corrupted_potential() {
        let (net, s, t) = diamond();
        let mut ws = SolverWorkspace::new();
        let mut guard = ws.lease_arena();
        let (res, ws) = guard.parts();
        let (super_s, super_t, required) = transform_into(&net, s, t, 1, res);
        assert_eq!(ssp_run(res, super_s, super_t, required, ws).unwrap(), 1);
        let sol = solution_from_residual(&net, res, 1);
        assert_eq!(certify(&net, s, t, res, ws, &sol), Ok(()));
        // One unit took s -> a -> t, so b -> t (cost 3) is still open;
        // raising t's potential past its cost makes that edge negative.
        ws.node[idx(t)].potential += 100;
        let err = certify(&net, s, t, res, ws, &sol).unwrap_err();
        assert!(matches!(err, NetflowError::InvalidSolution { .. }), "{err}");
        assert!(err.to_string().contains("certificate"), "{err}");
    }

    /// A phase that pushes nothing while the sink is reachable is a solver
    /// bug (stale lists or cursors); the next round would find the same
    /// path again, so the phases report it instead of looping.
    #[test]
    fn a_phase_that_pushes_nothing_is_an_error_not_a_hang() {
        let (net, s, t) = diamond();
        let mut ws = SolverWorkspace::new();
        let mut guard = ws.lease_arena();
        let (res, ws) = guard.parts();
        let (super_s, super_t, required) = transform_into(&net, s, t, 2, res);
        let mut phases = 0;
        // Phase 0 moves the unit over `a`; the unit over `b` needs a round.
        let err = ssp_phases(
            res,
            super_s,
            super_t,
            required,
            ws,
            true,
            |res, s, t, ws, limit| {
                phases += 1;
                if phases == 1 {
                    crate::dinic::blocking_flow_admissible(res, s, t, ws, limit)
                } else {
                    0
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, NetflowError::InvalidSolution { .. }), "{err}");
        assert_eq!(phases, 2);
    }

    #[test]
    fn certificate_rejects_a_broken_flow_and_a_breached_bound() {
        let (net, s, t) = diamond();
        let mut ws = SolverWorkspace::new();
        let mut guard = ws.lease_arena();
        let (res, ws) = guard.parts();
        let (super_s, super_t, required) = transform_into(&net, s, t, 1, res);
        assert_eq!(ssp_run(res, super_s, super_t, required, ws).unwrap(), 1);
        let sol = solution_from_residual(&net, res, 1);
        // The unit took s -> a -> t: a capacity below it breaches a bound.
        let mut shrunk = net.clone();
        shrunk
            .set_arc_capacity(crate::ArcId(0), 0)
            .expect("a valid capacity");
        let err = certify(&shrunk, s, t, res, ws, &sol).unwrap_err();
        assert!(err.to_string().contains("outside [0, 0]"), "{err}");
        // A unit on b -> t that never entered b breaks conservation.
        res.push(res.edge_of_arc[3], 1);
        let sol = solution_from_residual(&net, res, 1);
        let err = certify(&net, s, t, res, ws, &sol).unwrap_err();
        assert!(err.to_string().contains("violates conservation"), "{err}");
    }
}
