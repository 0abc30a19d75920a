//! Pruned exact SSP: the successive-shortest-path phases of
//! [`ssp_run`](crate::ssp::ssp_run) settled over a reduced-cost
//! working set, made exact again by a price repair and checked by an
//! optimality certificate.
//!
//! In the allocation networks the flow value equals the register count R,
//! so SSP needs at most R augmenting rounds and nearly all of its time goes
//! into the full-residual arc scan of each settling Dijkstra round. On
//! networks of at least [`PRUNE_MIN_ARCS`] arcs,
//! [`min_cost_flow_with`](crate::min_cost_flow_with) therefore runs the
//! phases below instead of the plain ones:
//!
//! 1. **Working set** ([`build_working_set`]): after the initial exact
//!    potentials, each node keeps its [`KEEP_RANK`] cheapest outgoing and
//!    incoming residual edges by reduced cost (the super source and sink
//!    keep everything), closed under partnering so a push on a kept edge
//!    makes a kept backward edge live. The working set lives *inside* the
//!    residual: [`Residual::regroup_kept`] moves each node's kept slots to
//!    the front of its slot range and records the boundary in
//!    `kept_end`, so the pruned rounds scan `first_out[u]..kept_end[u]` of
//!    the same slot array the full scans use — no copy of the kept arcs.
//! 2. **Pruned rounds**: [`settle_within`] the kept prefixes, fold the
//!    distances into the potentials, then a blocking flow searched
//!    *backward from the sink* ([`blocking_flow_kept`]): the source's
//!    admissible cone covers most of the settled subgraph while the sink's
//!    tight in-cone holds little beyond the augmenting paths themselves.
//! 3. **Repair** ([`repair_certificate`]): pushes on the kept subgraph may
//!    have taken paths that are not shortest in the full residual, so the
//!    potentials are lowered by label correcting over the *full* residual;
//!    a negative residual cycle the pruning let through shows up in the
//!    label-correcting parent graph and is cancelled in place (the flow
//!    value is preserved). The plain SSP rounds then route whatever the
//!    working set could not reach.
//! 4. **Certificate** ([`certificate_holds`]): before returning, every
//!    positive-capacity residual edge is checked for a non-negative reduced
//!    cost under the final potentials — an O(E) proof that the flow is
//!    minimum-cost at its value. A failed repair or a failed certificate
//!    re-solves without pruning from the pristine residual and is counted in
//!    [`SolverStats::prune_fallbacks`](crate::SolverStats::prune_fallbacks).
//!
//! The answer is therefore exact; on tie-broken networks (unique optimum)
//! it is identical to the unpruned solve, flow for flow.

use crate::dinic::blocking_flow_admissible;
use crate::residual::Residual;
use crate::ssp::{initial_potentials, settle_within, ssp_rounds, update_potentials};
use crate::workspace::{NodeState, SolverWorkspace, INF};
use crate::NetflowError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Arc count from which [`min_cost_flow_with`](crate::min_cost_flow_with)
/// prunes: below it, one full settle per round is cheaper than ranking and
/// regrouping the residual; above it, the per-round arc scan is the whole
/// cost of the solve. Every smaller network runs the plain SSP phases.
pub(crate) const PRUNE_MIN_ARCS: usize = 100_000;

/// Per-node working-set width: each node keeps this many cheapest outgoing
/// and incoming residual edges by initial reduced cost. Measured on the
/// 512-variable allocation networks: narrower widths (32, 24) push real
/// shortest paths out of the working set and the repair pays for them
/// several times over; 64 settles more arcs per round for no net gain.
pub(crate) const KEEP_RANK: usize = 48;

/// Working-set flag: the edge has positive capacity and both endpoints are
/// reachable, so it may be ranked.
const CANDIDATE: u8 = 1;
/// Working-set flag: the edge is in the working set.
const KEEP: u8 = 2;

/// Scratch of the pruned solve, reused across solves on one workspace.
#[derive(Debug, Default)]
pub(crate) struct PruneScratch {
    /// [`CANDIDATE`] / [`KEEP`] flags per edge id.
    flags: Vec<u8>,
    /// Ranking scratch of the working-set builder: `(reduced cost, edge)`.
    rank: Vec<(i64, u32)>,
    /// Blocking-flow DFS node states ([`BF_FRESH`]-family constants).
    level: Vec<u8>,
    /// Blocking-flow DFS cursors: the next kept slot of each node to try.
    iter: Vec<u32>,
    /// Blocking-flow DFS path: edge ids of the in-arcs taken.
    path: Vec<u32>,
    /// Blocking-flow DFS node trail, sink-anchored.
    chain: Vec<u32>,
    /// Potential scratch of the price repair.
    pot: Vec<i64>,
}

/// The pruned phase loop on a freshly transformed residual: the phases of
/// [`ssp_run`](crate::ssp::ssp_run) with the settling rounds
/// restricted to the working set, then the repair, the plain rounds that
/// finish on the full residual, and the certificate.
///
/// Returns the units moved, or `None` when the repair or the certificate
/// failed; the caller then re-solves without pruning from the pristine
/// residual.
///
/// # Errors
///
/// Budget and negative-cycle errors, exactly as
/// [`ssp_run`](crate::ssp::ssp_run).
pub(crate) fn pruned_phases(
    res: &mut Residual,
    s: usize,
    t: usize,
    target: i64,
    ws: &mut SolverWorkspace,
) -> Result<Option<i64>, NetflowError> {
    ws.prepare(res.node_count());
    initial_potentials(res, s, ws)?;
    build_working_set(res, ws);

    let budget = ws.budget;
    let mut rounds = 0u64;
    let mut flow = 0i64;
    // Phase 0 is the plain one: the initial potentials are exact distances
    // over the full residual, so its admissible subgraph needs no settle.
    if flow < target && ws.node[t].potential < INF {
        budget.check_rounds("ssp", "augment", rounds)?;
        rounds += 1;
        flow += blocking_flow_admissible(res, s, t, ws, target - flow);
    }
    while flow < target {
        budget.check_rounds("ssp", "augment", rounds)?;
        rounds += 1;
        let dist_t = settle_within(res, &res.kept_end, s, t, ws);
        if dist_t >= INF {
            break;
        }
        update_potentials(ws, dist_t);
        let pushed = blocking_flow_kept(res, s, t, ws, target - flow);
        if pushed == 0 {
            // The kept distances promised an admissible path the kept
            // residual no longer offers; the full rounds below finish.
            break;
        }
        flow += pushed;
    }

    if !repair_certificate(res, ws) {
        return Ok(None);
    }
    // Everything pushed so far is minimum-cost at its value; the plain
    // rounds route what the working set could not see and deliver the
    // exact achieved value when the instance is infeasible.
    flow += ssp_rounds(res, s, t, target - flow, ws, rounds)?;
    Ok(certificate_holds(res, &ws.node).then_some(flow))
}

/// The always-on optimality certificate: every positive-capacity residual
/// edge between reachable nodes has a non-negative reduced cost under the
/// potentials. (Nodes the initial potentials left at `INF` are unreachable
/// from the source, and pushes only ever add residual edges between
/// reachable nodes, so they stay out of every augmenting path.)
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

/// Flags each slice's top-`k` entries (by `(reduced cost, edge id)`,
/// deterministic because edge ids are unique) as [`KEEP`].
fn mark_top_k(rank: &mut Vec<(i64, u32)>, k: usize, flags: &mut [u8]) {
    if k < rank.len() {
        rank.select_nth_unstable(k - 1);
        rank.truncate(k);
    }
    for &(_, e) in rank.iter() {
        flags[e as usize] |= KEEP;
    }
}

/// Builds the reduced-cost working set over the freshly transformed
/// residual — per node, the [`KEEP_RANK`] cheapest outgoing *and* incoming
/// positive-capacity edges by initial reduced cost, the super source and
/// sink keeping everything, closed under partnering — and regroups the
/// residual so each node's kept slots come first.
fn build_working_set(res: &mut Residual, ws: &mut SolverWorkspace) {
    let n = res.node_count();
    let m = res.first_out[n] as usize;
    let (super_s, super_t) = (n - 2, n - 1);
    let width = |u: usize| {
        if u == super_s || u == super_t {
            usize::MAX
        } else {
            KEEP_RANK
        }
    };
    let SolverWorkspace { node, prune, .. } = ws;
    let node: &[NodeState] = &node[..n];
    prune.flags.clear();
    prune.flags.resize(m, 0);

    // Out-arc ranking: per tail, keep the K cheapest by reduced cost.
    for (u, st) in node.iter().enumerate() {
        let pu = st.potential;
        if pu >= INF {
            continue;
        }
        prune.rank.clear();
        for sl in &res.slots[res.active_slots(u)] {
            let pv = node[sl.to as usize].potential;
            if sl.cap <= 0 || pv >= INF {
                continue;
            }
            prune.flags[sl.edge as usize] |= CANDIDATE;
            prune.rank.push((sl.cost + pu - pv, sl.edge));
        }
        mark_top_k(&mut prune.rank, width(u), &mut prune.flags);
    }

    // In-arc ranking from each head's own slots, whose partners are exactly
    // its in-arcs: this keeps every node *suppliable* — a node whose cheap
    // in-arcs all start at high-degree tails would lose them to the
    // out-arc cap alone.
    for (v, st) in node.iter().enumerate() {
        let pv = st.potential;
        if pv >= INF {
            continue;
        }
        prune.rank.clear();
        for sl in &res.slots[res.all_slots(v)] {
            let g = sl.edge ^ 1;
            if prune.flags[g as usize] & CANDIDATE != 0 {
                // `g` runs `sl.to -> v` at cost `-sl.cost`.
                let pu = node[sl.to as usize].potential;
                prune.rank.push((pu - sl.cost - pv, g));
            }
        }
        mark_top_k(&mut prune.rank, width(v), &mut prune.flags);
    }

    let flags = &prune.flags;
    res.regroup_kept(|e| (flags[e as usize] | flags[(e ^ 1) as usize]) & KEEP != 0);
}

/// Node state of the kept blocking-flow DFS.
const BF_FRESH: u8 = 0;
/// On the current DFS path (cycle guard — admissible zero-cost cycles
/// exist in tie-broken networks' residuals).
const BF_ON_PATH: u8 = 1;
/// Retired this round: every admissible in-arc dead-ended.
const BF_RETIRED: u8 = 2;

/// Blocking flow restricted to the kept admissible subgraph: positive
/// capacity and zero reduced cost under the just-folded potentials (the
/// settle only explored kept arcs, so its distances only certify kept
/// paths). The search runs backward from the sink. The working set is
/// closed under partnering, so a node's kept in-arcs are exactly the
/// partners of its own kept slots, and kept slots never move, so the
/// cursors are plain slot indices that persist across augments within the
/// round.
fn blocking_flow_kept(
    res: &mut Residual,
    s: usize,
    t: usize,
    ws: &mut SolverWorkspace,
    limit: i64,
) -> i64 {
    let n = res.node_count();
    let SolverWorkspace { node, prune, .. } = ws;
    let p = prune;
    p.level.clear();
    p.level.resize(n, BF_FRESH);
    p.iter.clear();
    p.iter.extend_from_slice(&res.first_out[..n]);
    p.path.clear();
    p.chain.clear();
    p.level[t] = BF_ON_PATH;
    p.chain.push(t as u32);
    let mut pushed = 0i64;
    while pushed < limit {
        let v = *p.chain.last().expect("chain keeps its sink anchor") as usize;
        if v == s {
            let amount = p
                .path
                .iter()
                .map(|&g| res.cap_of(g))
                .fold(limit - pushed, i64::min);
            for &g in &p.path {
                res.push(g, amount);
            }
            pushed += amount;
            // Restart from the sink with cursors kept: unsaturated path
            // arcs sit right under their heads' cursors and are retried
            // first, saturated ones are rejected and stepped past.
            for &x in &p.chain {
                p.level[x as usize] = BF_FRESH;
            }
            p.path.clear();
            p.chain.clear();
            p.level[t] = BF_ON_PATH;
            p.chain.push(t as u32);
            continue;
        }
        let pv = node[v].potential;
        let mut advanced = false;
        while p.iter[v] < res.kept_end[v] {
            let sl = res.slots[p.iter[v] as usize];
            let w = sl.to as usize;
            if p.level[w] == BF_FRESH {
                // The in-arc `g = (w, v)` is this slot's partner, at cost
                // `-sl.cost`.
                let g = sl.edge ^ 1;
                let pw = node[w].potential;
                if pw < INF && pw - sl.cost - pv == 0 && res.cap_of(g) > 0 {
                    p.level[w] = BF_ON_PATH;
                    p.chain.push(w as u32);
                    p.path.push(g);
                    advanced = true;
                    break;
                }
            }
            p.iter[v] += 1;
        }
        if !advanced {
            // Dead end: no admissible in-arc reaches `v` any more this
            // round. Retiring the sink itself exhausts the round.
            p.level[v] = BF_RETIRED;
            p.chain.pop();
            p.path.pop();
            match p.chain.last() {
                Some(&x) => p.iter[x as usize] += 1,
                None => break,
            }
        }
    }
    ws.pushed_units += pushed as u64;
    pushed
}

/// Per-node lowering count between parent-graph cycle probes: cheap enough
/// that a genuine cycle is caught within a couple of laps, rare enough that
/// legitimate long correction chains pay almost nothing.
const WALK_PERIOD: u32 = 16;

/// Negative-cycle cancellations the repair will perform before giving up.
/// Pruning at [`KEEP_RANK`] leaves at most a handful of tie-break-sized
/// cycles, so hitting this bound means the working set was badly wrong and
/// an unpruned solve is cheaper than continuing.
const MAX_CANCELS: u32 = 256;

/// Restores a valid reduced-cost certificate on the *full* residual,
/// proving the flow routed through the kept subgraph is minimum-cost at its
/// value. Label correcting lowers the potentials the common few arcs they
/// are off by; any negative residual cycle the pruning committed (flow a
/// cheaper unseen detour undercuts) shows up as a cycle in the
/// label-correcting parent graph and is cancelled in place, preserving the
/// flow value; cancelled units count toward `pushed_units`. The warm
/// reoptimizer runs the same repair on its retained residual. Returns
/// `false` when the repair budget trips instead, leaving the potentials as
/// they were.
pub(crate) fn repair_certificate(res: &mut Residual, ws: &mut SolverWorkspace) -> bool {
    let n = res.node_count();
    let SolverWorkspace {
        node,
        prune,
        pushed_units,
        ..
    } = ws;
    prune.pot.clear();
    prune.pot.extend(node[..n].iter().map(|st| st.potential));
    let ok = converge_prices(res, &mut prune.pot, pushed_units);
    if ok {
        for (st, &p) in node[..n].iter_mut().zip(&prune.pot) {
            st.potential = p;
        }
    }
    ok
}

/// Label-correcting state of [`converge_prices`], split out so node
/// relaxation can live in a free function (the borrow on `res` must end
/// before a cancellation mutates it).
struct Repair {
    /// Times each node's potential has been lowered.
    lowered: Vec<u32>,
    /// Potentials on entry: `pot[v] - base[v] ≤ 0` is how far `v` has
    /// been lowered, the frontier's key.
    base: Vec<i64>,
    /// Nodes whose out-edges must be (re-)relaxed, most-lowered first.
    frontier: BinaryHeap<Reverse<(i64, u32)>>,
    /// Edge id that last lowered each node (`u32::MAX`: none). Any cycle in
    /// this parent graph is a negative-cost residual cycle (the classic
    /// Bellman–Ford predecessor-subgraph lemma).
    parent: Vec<u32>,
    /// Visit stamps for parent-chain walks; `stamp_id` names the current
    /// walk so the array never needs clearing.
    stamp: Vec<u32>,
    stamp_id: u32,
}

impl Repair {
    fn new(pot: &[i64]) -> Self {
        let n = pot.len();
        Repair {
            lowered: vec![0; n],
            base: pot.to_vec(),
            frontier: BinaryHeap::new(),
            parent: vec![u32::MAX; n],
            stamp: vec![0; n],
            stamp_id: 0,
        }
    }

    /// Queues `v` for (re-)relaxation at its current lowering.
    fn push(&mut self, v: usize, pot: &[i64]) {
        self.frontier
            .push(Reverse((pot[v] - self.base[v], v as u32)));
    }
}

/// One node relaxation's verdict.
enum Relax {
    /// All out-edges relaxed without incident.
    Done,
    /// A parent-graph cycle surfaced: these edge ids form a negative-cost
    /// residual cycle, in reverse traversal order (irrelevant for
    /// cancellation).
    Cycle(Vec<u32>),
    /// A node was lowered more than `n + 1` times with no cycle in sight —
    /// a should-not-happen divergence guard.
    Diverged,
}

/// Relaxes every residual out-edge of `u` once, recording parent pointers
/// and probing the parent graph for a cycle every [`WALK_PERIOD`]th
/// lowering of a node.
fn relax_node(res: &Residual, u: usize, pot: &mut [i64], st: &mut Repair, cap: u32) -> Relax {
    let pu = pot[u];
    if pu >= INF {
        return Relax::Done;
    }
    for slot in res.active_slots(u) {
        let sl = res.slots[slot];
        if sl.cap <= 0 {
            continue;
        }
        let v = sl.to as usize;
        if pot[v] >= INF {
            continue;
        }
        let bound = pu + sl.cost;
        if bound < pot[v] {
            pot[v] = bound;
            st.parent[v] = sl.edge;
            st.lowered[v] += 1;
            if st.lowered[v] > cap {
                return Relax::Diverged;
            }
            // Queue `v` before any cycle probe: a rho-shaped parent walk
            // returns a cycle that does not pass through `v`, and the
            // cancellation only re-queues the cycle's own nodes, so `v`'s
            // out-edges would otherwise never be re-checked against its
            // lowered potential.
            st.push(v, pot);
            if st.lowered[v] % WALK_PERIOD == 0 {
                st.stamp_id += 1;
                let Repair { parent, stamp, .. } = st;
                if let Some(cycle) = extract_cycle(res, parent, v, stamp, st.stamp_id) {
                    return Relax::Cycle(cycle);
                }
            }
        }
    }
    Relax::Done
}

/// Walks parent pointers back from `start`, stamping visits; re-entering a
/// node stamped by *this* walk means the chain ran into a parent-graph
/// cycle, whose edges are collected and returned. A chain that ends at a
/// parentless node returns `None` (a legitimately long correction chain).
/// Earlier cancellations can leave a saturated edge in the parent graph;
/// collection re-checks liveness and, on a stale edge, severs it from the
/// parent graph and returns `None` instead of a bogus cycle.
fn extract_cycle(
    res: &Residual,
    parent: &mut [u32],
    start: usize,
    stamp: &mut [u32],
    stamp_id: u32,
) -> Option<Vec<u32>> {
    let mut y = start;
    loop {
        if stamp[y] == stamp_id {
            // `y` is on the cycle; every node around it has a parent.
            let first = y;
            let mut edges = Vec::new();
            loop {
                let e = parent[y];
                if res.cap_of(e) <= 0 {
                    parent[y] = u32::MAX;
                    return None;
                }
                edges.push(e);
                y = res.tail(e);
                if y == first {
                    return Some(edges);
                }
            }
        }
        stamp[y] = stamp_id;
        let e = parent[y];
        if e == u32::MAX {
            return None;
        }
        y = res.tail(e);
    }
}

/// Lowers `pot` to a valid potential by label correcting over the
/// residual, with **no** freeze heuristic: unlike the reoptimizer's price
/// refinement, which caps per-node relaxations at a small constant tuned
/// for local perturbations, the repair arrives with potentials that are
/// wrong along whole fold chains and legitimately needs many corrections.
///
/// One pass over every node lowers the heads of the violated edges; from
/// there, lowered nodes are relaxed most-lowered first. That is Dijkstra's
/// order for the lowering amounts over the edges the entry potentials
/// already certify, so a node is normally relaxed once; only the few
/// violated edges can lower an already relaxed node again.
///
/// When the parent graph closes a cycle — a genuine negative-cost residual
/// cycle, i.e. flow the pruned rounds committed that a cheaper unseen
/// detour undercuts — the cycle is cancelled directly on the residual
/// (saturating its bottleneck edge, preserving the flow value, strictly
/// lowering cost) and correction continues in place: the cancellation only
/// creates new residual edges out of the cycle's own nodes, so re-queueing
/// those nodes restores the "every violated tail is queued" invariant
/// without a restart. Every cancelled unit is added to `cancelled`.
/// Returns `true` once the frontier drains — `pot` is then a valid
/// potential on every residual edge between reachable nodes; `false` when
/// [`MAX_CANCELS`] cancellations did not suffice or a node diverged, in
/// which case `pot` is unusable but the residual stays a flow of the same
/// value.
fn converge_prices(res: &mut Residual, pot: &mut [i64], cancelled: &mut u64) -> bool {
    let n = res.node_count();
    let cap = n as u32 + 1;
    let mut st = Repair::new(pot);
    let mut cancels = 0u32;
    // Seed: lower every violated edge's head against the entry
    // potentials, leaving all propagation to the frontier's order.
    for u in 0..n {
        let bu = st.base[u];
        if bu >= INF {
            continue;
        }
        for sl in &res.slots[res.active_slots(u)] {
            let v = sl.to as usize;
            if sl.cap > 0 && pot[v] < INF && bu + sl.cost < pot[v] {
                pot[v] = bu + sl.cost;
                st.parent[v] = sl.edge;
                st.push(v, pot);
            }
        }
    }
    loop {
        let u = match st.frontier.pop() {
            Some(Reverse((key, u))) if key == pot[u as usize] - st.base[u as usize] => u as usize,
            // Lowered again since this entry was queued.
            Some(_) => continue,
            None => return true,
        };
        match relax_node(res, u, pot, &mut st, cap) {
            Relax::Done => {}
            Relax::Diverged => return false,
            Relax::Cycle(cycle) => {
                match cancel_cycle(res, &cycle, pot, &mut st, &mut cancels) {
                    Some(amount) => *cancelled += amount as u64,
                    None => return false,
                }
                // `u`'s remaining out-edges are revisited from the frontier.
                st.push(u, pot);
            }
        }
    }
}

/// Saturates a negative-cost residual cycle: pushes the bottleneck
/// capacity around every edge, which keeps all flow-conservation values
/// intact and strictly lowers total cost. The cycle's nodes are severed
/// from the parent graph (their inbound parent edges may now be saturated)
/// and re-queued, which also covers the reverse edges the pushes just
/// opened — each has its tail on the cycle. Returns the units pushed, or
/// `None` once [`MAX_CANCELS`] cancellations have been spent.
fn cancel_cycle(
    res: &mut Residual,
    cycle: &[u32],
    pot: &[i64],
    st: &mut Repair,
    cancels: &mut u32,
) -> Option<i64> {
    *cancels += 1;
    if *cancels > MAX_CANCELS {
        return None;
    }
    debug_assert!(cycle.iter().map(|&e| res.cost_of(e)).sum::<i64>() < 0);
    let amount = cycle
        .iter()
        .map(|&e| res.cap_of(e))
        .min()
        .expect("cycles are non-empty");
    debug_assert!(amount > 0, "extraction verified liveness");
    for &e in cycle {
        res.push(e, amount);
        let h = res.head(e);
        st.parent[h] = u32::MAX;
        st.push(h, pot);
    }
    Some(amount)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssp::min_cost_flow_ssp;
    use crate::{min_cost_flow, FlowNetwork, FlowSolution, NodeId};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The forced-pruning entry point against the unpruned one, on one
    /// workspace each (reused across calls by the proptests below).
    fn both(
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> (
        Result<FlowSolution, NetflowError>,
        Result<FlowSolution, NetflowError>,
    ) {
        let mut ws = SolverWorkspace::new();
        let unpruned = min_cost_flow_ssp(net, s, t, target, &mut ws, false);
        let pruned = min_cost_flow_ssp(net, s, t, target, &mut ws, true);
        assert_eq!(ws.stats().prune_fallbacks, 0, "certificate held");
        (unpruned, pruned)
    }

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
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

    /// A wide layered network large enough that the working set actually
    /// drops arcs: every middle node has `layer > KEEP_RANK` out-arcs and
    /// every outer node as many in-arcs. Arc costs come from `cost(i, j)`.
    fn wide(layer: usize, cost: impl Fn(usize, usize) -> i64) -> (FlowNetwork, NodeId, NodeId) {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let mids: Vec<_> = (0..layer).map(|_| net.add_node()).collect();
        let outs: Vec<_> = (0..layer).map(|_| net.add_node()).collect();
        let t = net.add_node();
        for (i, &m) in mids.iter().enumerate() {
            net.add_arc(s, m, 2, i as i64 % 7).unwrap();
            for (j, &o) in outs.iter().enumerate() {
                net.add_arc(m, o, 1, cost(i, j)).unwrap();
            }
        }
        for (j, &o) in outs.iter().enumerate() {
            net.add_arc(o, t, 3, (j % 5) as i64).unwrap();
        }
        (net, s, t)
    }

    fn wide_fixed(layer: usize) -> (FlowNetwork, NodeId, NodeId) {
        wide(layer, |i, j| ((i * 31 + j * 17) % 23) as i64)
    }

    fn assert_same_verdict(
        unpruned: &Result<FlowSolution, NetflowError>,
        pruned: &Result<FlowSolution, NetflowError>,
        exact_flows: bool,
    ) {
        match (unpruned, pruned) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.value, b.value);
                if exact_flows {
                    assert_eq!(a.flows, b.flows);
                }
            }
            // The plain rounds after the repair run on the full residual,
            // so the shortfall is exact, not just the verdict.
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("unpruned and pruned disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn pruned_matches_unpruned_on_the_diamond() {
        let (net, s, t) = diamond();
        for target in 0..=3 {
            let (unpruned, pruned) = both(&net, s, t, target);
            assert_same_verdict(&unpruned, &pruned, true);
        }
    }

    #[test]
    fn pruned_matches_unpruned_on_a_wide_net_that_drops_arcs() {
        let (net, s, t) = wide_fixed(64);
        for target in [1, 40, 128, 129] {
            let (unpruned, pruned) = both(&net, s, t, target);
            assert_same_verdict(&unpruned, &pruned, false);
        }
    }

    #[test]
    fn the_working_set_keeps_a_prefix_of_every_wide_row() {
        let (net, s, t) = wide_fixed(64);
        let mut ws = SolverWorkspace::new();
        let mut guard = ws.lease_arena();
        let (res, ws) = guard.parts();
        let (super_s, _, _) = crate::ssp::transform_into(&net, s, t, 40, res);
        ws.prepare(res.node_count());
        initial_potentials(res, super_s, ws).unwrap();
        build_working_set(res, ws);
        let is_kept = |e: u32| {
            let u = res.tail(e);
            let slot = res.all_slots(u).find(|&sl| res.slots[sl].edge == e);
            slot.expect("every edge sits in its tail's row") < res.kept_end[u] as usize
        };
        let mut dropped = 0;
        for u in 0..res.node_count() {
            assert!(res.first_out[u] <= res.kept_end[u]);
            assert!(res.kept_end[u] <= res.active_end[u]);
            for slot in res.all_slots(u) {
                let e = res.slots[slot].edge;
                assert_eq!(res.tail(e), u, "slot_of follows the regroup");
                assert_eq!(is_kept(e), is_kept(e ^ 1), "closed under partnering");
                dropped += usize::from(!is_kept(e));
            }
        }
        assert!(dropped > 0, "a 64-wide layer must prune");
        // The active-prefix invariant survives the regroup.
        for u in 0..res.node_count() {
            let dormant = res.active_end[u] as usize..res.first_out[u + 1] as usize;
            assert!(res.slots[dormant].iter().all(|sl| sl.cap <= 0));
        }
    }

    #[test]
    fn pruned_reports_exact_infeasibility() {
        let (net, s, t) = diamond();
        let (unpruned, pruned) = both(&net, s, t, 3);
        assert!(matches!(unpruned, Err(NetflowError::Infeasible { .. })));
        assert_same_verdict(&unpruned, &pruned, true);
    }

    #[test]
    fn workspace_reuse_across_pruned_solves() {
        let (net, s, t) = wide_fixed(56);
        let mut ws = SolverWorkspace::new();
        let first = min_cost_flow_ssp(&net, s, t, 30, &mut ws, true).unwrap();
        let second = min_cost_flow_ssp(&net, s, t, 30, &mut ws, true).unwrap();
        let plain = min_cost_flow_ssp(&net, s, t, 30, &mut ws, false).unwrap();
        assert_eq!(first.flows, second.flows);
        assert_eq!(first.cost, plain.cost);
        assert_eq!(plain.cost, min_cost_flow(&net, s, t, 30).unwrap().cost);
    }

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

    /// A DAG as `(nodes, arcs)`, arcs `(from, to, lower, cap, cost)`.
    type Dag = (usize, Vec<(usize, usize, i64, i64, i64)>);

    /// A randomly generated DAG (`from < to`).
    fn random_dag(with_lower_bounds: bool) -> impl Strategy<Value = Dag> {
        (2usize..10).prop_flat_map(move |nodes| {
            let arc = (0..nodes - 1).prop_flat_map(move |from| {
                (Just(from), from + 1..nodes, 0i64..3, 0i64..5, -12i64..12)
            });
            proptest::collection::vec(arc, 1..24).prop_map(move |raw| {
                let arcs = raw
                    .into_iter()
                    .map(|(f, t, lb, extra, cost)| {
                        let lb = if with_lower_bounds { lb } else { 0 };
                        (f, t, lb, lb + extra, cost)
                    })
                    .collect();
                (nodes, arcs)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Same objective and the exact same infeasibility shortfall on
        /// random DAGs with lower bounds (small degrees: the working set
        /// keeps everything, so this exercises the regroup, the repair and
        /// the certificate on their own).
        #[test]
        fn pruned_matches_unpruned_on_random_dags(
            dag in random_dag(true),
            target in 0i64..8,
        ) {
            let (nodes, arcs) = dag;
            let mut net = FlowNetwork::new();
            let ids = net.add_nodes(nodes);
            for &(f, t, lb, cap, cost) in &arcs {
                net.add_arc_bounded(ids[f], ids[t], lb, cap, cost).unwrap();
            }
            let (unpruned, pruned) = both(&net, ids[0], ids[nodes - 1], target);
            assert_same_verdict(&unpruned, &pruned, false);
        }

        /// Unit capacities with distinct power-of-two cost offsets make the
        /// optimum unique (the offset sum encodes the used arc set, as in
        /// `lemra-core`'s tie-breaking), so the flows must match arc for arc.
        #[test]
        fn pruned_places_identically_when_tie_broken(
            dag in random_dag(false),
            target in 1i64..5,
        ) {
            let (nodes, arcs) = dag;
            let mut net = FlowNetwork::new();
            let ids = net.add_nodes(nodes);
            for (i, &(f, t, _, _, cost)) in arcs.iter().take(24).enumerate() {
                net.add_arc(ids[f], ids[t], 1, cost * (1i64 << 25) + (1i64 << i)).unwrap();
            }
            let (unpruned, pruned) = both(&net, ids[0], ids[nodes - 1], target);
            assert_same_verdict(&unpruned, &pruned, true);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Wide layered nets whose tails have more than `KEEP_RANK`
        /// out-arcs, so the working set drops arcs and the repair has real
        /// work: same objective with small (tie-prone) costs, the same flow
        /// with 40-bit random costs (a unique optimum), and the same
        /// shortfall past the sink's capacity.
        #[test]
        fn pruned_matches_unpruned_on_wide_layered_nets(
            layer in (KEEP_RANK + 1)..(KEEP_RANK + 16),
            seed in any::<u64>(),
            target_frac in 0i64..=110,
            small_costs in any::<bool>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let span = if small_costs { 24 } else { 1i64 << 40 };
            let costs: Vec<i64> = (0..layer * layer).map(|_| rng.gen_range(0..span)).collect();
            let (net, s, t) = wide(layer, |i, j| costs[i * layer + j]);
            // 2 units per middle node: targets up to 10% past that bound.
            let target = 2 * layer as i64 * target_frac / 100;
            let (unpruned, pruned) = both(&net, s, t, target);
            assert_same_verdict(&unpruned, &pruned, !small_costs);
        }
    }
}
