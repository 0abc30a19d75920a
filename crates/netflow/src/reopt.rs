//! Warm-start reoptimisation across a sweep of related solves.
//!
//! Parameter sweeps (the paper's Table 1 frequency sweep, register-file
//! sizing, activity vs. static objectives) solve sequences of min-cost-flow
//! problems that differ only in a few arc costs, capacities or the flow
//! value `F`. Re-solving each point from scratch discards the two artefacts
//! the previous point worked hardest to produce: the optimal residual graph
//! and the node potentials certifying its optimality. A [`Reoptimizer`]
//! keeps both, diffs each incoming network against the last one solved —
//! whose arcs the retained residual graph still holds — and repairs
//! optimality instead of rebuilding it:
//!
//! 1. **Apply deltas in place.** Cost changes rewrite the forward/backward
//!    residual edge pair. Capacity changes adjust residual headroom; if the
//!    new capacity is below the flow the arc currently carries, the surplus
//!    is stripped off the arc, leaving an excess at its tail and a deficit
//!    at its head. A changed flow target `F` becomes an excess at `s` and a
//!    deficit at `t` (or the reverse for a decrease).
//! 2. **Re-certify.** Price refinement first: cost drift that does not move
//!    the optimal flow is absorbed into the potentials alone. If negative
//!    residual cycles survive (the optimum genuinely moved), they are
//!    cancelled in place — flow moves only around the cycles the drift
//!    created — and the prices refined again. Only when that still leaves
//!    frozen nodes is a violated edge pushed to saturation, converting the
//!    local optimality violation into flow imbalance. After this pass
//!    reduced-cost optimality holds everywhere again.
//! 3. **Drain the imbalance.** Multi-source Dijkstra rounds over reduced
//!    costs route each unit of excess to the nearest deficit, updating the
//!    potentials exactly like the cold solver's augmentation rounds. Each
//!    round restores part of flow conservation while preserving optimality,
//!    so when the last deficit clears the residual graph is optimal for the
//!    new parameters.
//!
//! The number of Dijkstra rounds is bounded by the imbalance the deltas
//! created — typically a handful — whereas a cold solve pays one round per
//! unit of `F`. That is the asymmetry Király & Kovács (*Efficient
//! implementations of minimum-cost flow algorithms*) identify as dominating
//! practical MCF workloads.
//!
//! **Cold fallback.** The warm path is an optimisation, never a semantic:
//! [`Reoptimizer::solve`] falls back to an ordinary cold solve (retaining
//! its state for the next point) whenever the topology changed (node/arc
//! counts, endpoints, lower bounds), a delta touches a node the previous
//! solve proved unreachable, the imbalance is so large that draining would
//! cost more than resolving, or the drain cannot clear a deficit (the new
//! point is infeasible — the cold solve then produces the authoritative
//! error).
//!
//! **Certificate.** Every answer, warm or cold, is checked before it
//! returns, an O(V + E) pass: the flow must respect every arc's bounds and
//! conserve flow at every node, and each positive-capacity residual edge
//! between covered nodes must have a non-negative reduced cost under the
//! retained potentials. A violation is [`NetflowError::InvalidSolution`],
//! which a [`ResilientSolver`](crate::ResilientSolver) absorbs as an
//! incident and answers with a cold solve.
//!
//! # Examples
//!
//! ```
//! use lemra_netflow::{FlowNetwork, Reoptimizer};
//!
//! # fn main() -> Result<(), lemra_netflow::NetflowError> {
//! let mut net = FlowNetwork::new();
//! let (s, a, t) = (net.add_node(), net.add_node(), net.add_node());
//! net.add_arc(s, a, 2, 1)?;
//! let at = net.add_arc(a, t, 2, 1)?;
//! net.add_arc(s, t, 2, 5)?;
//!
//! let mut reopt = Reoptimizer::new();
//! assert_eq!(reopt.solve(&net, s, t, 2)?.cost, 4); // cold
//! net.set_arc_cost(at, 9);                          // sweep point 2
//! assert_eq!(reopt.solve(&net, s, t, 2)?.cost, 10); // warm: reroutes via bypass
//! assert_eq!(reopt.warm_solves(), 1);
//! # Ok(())
//! # }
//! ```

use crate::budget::SolveBudget;
use crate::graph::{FlowNetwork, NodeId};
use crate::residual::Residual;
use crate::ssp::{
    certify, check_endpoints, solution_from_residual, ssp_run, transform_into, update_potentials,
};
use crate::workspace::{SolverWorkspace, INF};
use crate::{FlowSolution, NetflowError};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Warm-start solver for sweeps of related min-cost-flow problems.
///
/// Drop-in replacement for calling [`min_cost_flow`](crate::min_cost_flow)
/// once per sweep point: identical contract per call (exact flow of
/// `target` from `s` to `t`, lower bounds honoured, same error conditions),
/// but consecutive calls whose networks differ only in arc costs,
/// capacities or the target reuse the previous solve's residual state. See
/// the [module documentation](self) for the algorithm and the fallback
/// conditions.
#[derive(Debug, Default)]
pub struct Reoptimizer {
    state: Option<State>,
    warm_solves: u64,
    cold_solves: u64,
    budget: SolveBudget,
}

impl Drop for Reoptimizer {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            // During thread teardown the spare slot may already be gone;
            // the buffers are then simply freed.
            let _ = SPARE.try_with(|spare| {
                if let Ok(mut spare) = spare.try_borrow_mut() {
                    *spare = Some(state);
                }
            });
        }
    }
}

thread_local! {
    /// The buffers of the last warm reoptimizer dropped on this thread. The
    /// first cold solve of a fresh reoptimizer rebuilds into them, so a
    /// short-lived owner (one chain walk, one server request) does not pay
    /// to fault its residual graph and workspace back in from the operating
    /// system every time.
    static SPARE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Everything retained from the last successful solve.
#[derive(Debug)]
struct State {
    /// Residual graph of the transformed problem, holding the optimal flow.
    res: Residual,
    /// Workspace whose `potential` certifies `res`'s optimality.
    ws: SolverWorkspace,
    /// Nonzero lower bounds of the network last solved, `(arc, bound)` in
    /// arc order. Every other arc field of that network is read back from
    /// `res` (see [`Residual::arc_state`]), which is what each incoming
    /// network is diffed against; no copy of the network is kept.
    lower_bounds: Vec<(u32, i64)>,
    s: usize,
    t: usize,
    target: i64,
    /// Scratch: per-node flow imbalance while repairing (length = residual
    /// node count, zeroed between solves).
    excess: Vec<i64>,
    /// Scratch: indices of arcs with applied deltas this solve.
    touched: Vec<u32>,
    /// Re-prove the reduced-cost certificate on *every* residual edge in
    /// the next warm attempt (set after a potential rescale, whose rounding
    /// may leave stray violations on otherwise untouched edges).
    recheck_all: bool,
}

/// Outcome of a warm attempt: a finished solution, or a request to fall
/// back to the cold path (which rebuilds all state from the new network).
enum Warm {
    Done(FlowSolution),
    Fallback,
}

impl Reoptimizer {
    /// A reoptimizer with no retained state; the first solve is cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves `net` for exactly `target` units from `s` to `t` — warm if the
    /// network differs from the previous call only by arc cost/capacity
    /// deltas or a target change, cold otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`min_cost_flow`](crate::min_cost_flow); infeasibility and
    /// negative-cycle errors are always diagnosed by a cold solve, so the
    /// error values are identical to the cold path's. Warm and cold answers
    /// alike return [`NetflowError::InvalidSolution`] when the retained flow
    /// or potentials fail the feasibility-and-optimality certificate. After
    /// an error the retained state is dropped and the next call starts cold.
    pub fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        check_endpoints(net, s, t, target)?;
        if let Some(state) = self.state.as_mut() {
            state.ws.budget = self.budget;
            let warm = state.try_warm(net, s, t, target).and_then(|warm| {
                if let Warm::Done(sol) = &warm {
                    certify(net, s, t, &state.res, &state.ws, sol)?;
                }
                Ok(warm)
            });
            match warm {
                Ok(Warm::Done(sol)) => {
                    self.warm_solves += 1;
                    return Ok(sol);
                }
                // The warm attempt may have already mutated the residual
                // graph; the cold path below rebuilds every piece of state
                // from `net`, so a fallback is always safe.
                Ok(Warm::Fallback) => {}
                Err(e) => {
                    self.state = None;
                    return Err(e);
                }
            }
        }
        self.cold(net, s, t, target)
    }

    /// Number of calls answered from retained state.
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// Installs a [`SolveBudget`] governing every subsequent solve (warm
    /// repairs and cold rebuilds alike), returning the previous budget.
    pub fn set_budget(&mut self, budget: SolveBudget) -> SolveBudget {
        std::mem::replace(&mut self.budget, budget)
    }

    /// Drops all retained solver state so the next call starts cold, keeping
    /// the warm/cold counters. Call this after a contained backend panic or
    /// an aborted solve: the retained residual may be mid-mutation, and a
    /// fresh cold solve is the only state guaranteed consistent.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Number of calls that (re)built state from scratch.
    pub fn cold_solves(&self) -> u64 {
        self.cold_solves
    }

    /// Cumulative shortest-path effort of the retained workspace (zero while
    /// no state is retained; counters survive warm/cold transitions because
    /// the workspace's buffers are reused across them).
    pub fn stats(&self) -> crate::SolverStats {
        self.state
            .as_ref()
            .map(|s| s.ws.stats())
            .unwrap_or_default()
    }

    fn cold(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        self.cold_solves += 1;
        // Rebuild into the previous state's buffers, so a cold solve after a
        // topology change costs what a plain solve does. The state is taken
        // out first: an error below cannot leave stale state behind.
        let (mut res, mut ws, mut lower_bounds) = match self.state.take() {
            Some(state) => (state.res, state.ws, state.lower_bounds),
            None => match SPARE.with(|spare| spare.borrow_mut().take()) {
                Some(state) => {
                    let mut ws = state.ws;
                    ws.clear_stats();
                    (state.res, ws, state.lower_bounds)
                }
                None => Default::default(),
            },
        };
        ws.budget = self.budget;
        let (super_s, super_t, required) = transform_into(net, s, t, target, &mut res);
        let pushed = ssp_run(&mut res, super_s, super_t, required, &mut ws)?;
        if pushed < required {
            return Err(NetflowError::Infeasible {
                required,
                achieved: pushed,
            });
        }
        let sol = solution_from_residual(net, &res, target);
        certify(net, s, t, &res, &ws, &sol)?;
        lower_bounds.clear();
        lower_bounds.extend(
            (0u32..)
                .zip(net.arcs_slice())
                .filter(|(_, arc)| arc.lower_bound != 0)
                .map(|(i, arc)| (i, arc.lower_bound)),
        );
        self.state = Some(State {
            res,
            ws,
            lower_bounds,
            s: s.index(),
            t: t.index(),
            target,
            excess: Vec::new(),
            touched: Vec::new(),
            recheck_all: false,
        });
        Ok(sol)
    }

    /// Hints that the next network's costs are approximately the previous
    /// ones times `ratio` — e.g. a caller re-quantised its cost encoding
    /// between sweep points. Retained potentials are scaled to match, so
    /// reduced costs keep their old magnitudes and the next warm repair
    /// stays a repair instead of degenerating into a near-full re-solve.
    /// The next warm attempt re-proves the optimality certificate on every
    /// residual edge, so an imprecise ratio costs time, never correctness.
    /// No-op without retained state or when `ratio` is 1 or unusable.
    pub fn costs_rescaled(&mut self, ratio: f64) {
        if !ratio.is_finite() || ratio <= 0.0 || ratio == 1.0 {
            return;
        }
        if let Some(state) = self.state.as_mut() {
            for st in state.ws.node.iter_mut() {
                if st.potential < INF {
                    st.potential = (st.potential as f64 * ratio).round() as i64;
                }
            }
            state.recheck_all = true;
        }
    }

    /// Per-arc variant of [`Self::costs_rescaled`] for sweeps whose arc
    /// costs do not all move by one factor — e.g. an operating-point change
    /// that derates memory-access terms but leaves register terms alone.
    /// `ratio_of(i)` is the expected cost ratio of arc `i` (indices of the
    /// network last solved). A potential tracks
    /// the magnitude of the costs around its node, so each node is scaled
    /// by the |cost|-weighted blend of its incident arcs' ratios; nodes
    /// with no weighted incident arc — and the flow transform's super
    /// nodes — use the global blend. Non-finite, non-positive or zero-cost
    /// entries contribute nothing. Like the uniform variant, an imprecise
    /// hint costs repair time, never correctness: the next warm attempt
    /// re-proves the certificate on every residual edge.
    pub fn costs_rescaled_per_arc(&mut self, ratio_of: impl Fn(usize) -> f64) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        let n = state.network_nodes();
        let mut weight = vec![0.0f64; n];
        let mut scaled = vec![0.0f64; n];
        let (mut total_w, mut total_s) = (0.0f64, 0.0f64);
        for (i, &e) in state.res.edge_of_arc.iter().enumerate() {
            let r = ratio_of(i);
            if !r.is_finite() || r <= 0.0 {
                continue;
            }
            let (from, to, cost, _) = state.res.arc_state(e);
            let w = cost.unsigned_abs() as f64;
            if w == 0.0 {
                continue;
            }
            for v in [from, to] {
                weight[v] += w;
                scaled[v] += w * r;
            }
            total_w += w;
            total_s += w * r;
        }
        if total_w == 0.0 {
            return;
        }
        let global = total_s / total_w;
        for (v, st) in state.ws.node.iter_mut().enumerate() {
            if st.potential >= INF {
                continue;
            }
            let r = if v < n && weight[v] > 0.0 {
                scaled[v] / weight[v]
            } else {
                global
            };
            st.potential = (st.potential as f64 * r).round() as i64;
        }
        state.recheck_all = true;
    }
}

impl State {
    /// Node count of the network last solved (the residual graph appends
    /// the transform's super-source and super-sink).
    fn network_nodes(&self) -> usize {
        self.res.node_count() - 2
    }

    /// Attempts to repair the retained optimum for `net`. `Ok(Fallback)`
    /// requests a cold solve; `Err` is only produced by the solve budget.
    fn try_warm(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<Warm, NetflowError> {
        if net.node_count() != self.network_nodes()
            || net.arc_count() != self.res.edge_of_arc.len()
            || s.index() != self.s
            || t.index() != self.t
        {
            return Ok(Warm::Fallback);
        }
        self.touched.clear();
        let mut lower_bounds = self.lower_bounds.iter().peekable();
        for ((id, new), &e) in net.arcs().zip(&self.res.edge_of_arc) {
            let lower = lower_bounds
                .next_if(|&&(arc, _)| arc as usize == id.index())
                .map_or(0, |&(_, bound)| bound);
            let (from, to, cost, headroom) = self.res.arc_state(e);
            if from != new.from.index() || to != new.to.index() || lower != new.lower_bound {
                return Ok(Warm::Fallback);
            }
            if cost != new.cost || headroom != new.capacity - lower {
                // A delta incident to a node the initial-potential pass
                // proved unreachable has no trustworthy reduced cost.
                if self.ws.node[new.from.index()].potential >= INF
                    || self.ws.node[new.to.index()].potential >= INF
                {
                    return Ok(Warm::Fallback);
                }
                self.touched.push(id.index() as u32);
            }
        }
        let df = target - self.target;
        if df != 0
            && (self.ws.node[self.s].potential >= INF || self.ws.node[self.t].potential >= INF)
        {
            return Ok(Warm::Fallback);
        }
        if self.touched.is_empty() && df == 0 && !self.recheck_all {
            // Identical problem: the retained residual already holds its
            // optimal flow.
            return Ok(Warm::Done(solution_from_residual(net, &self.res, target)));
        }

        // Step 1: apply the deltas in place, recording any imbalance.
        self.excess.clear();
        self.excess.resize(self.res.node_count(), 0);
        for &i in &self.touched {
            let new = net.arc(crate::ArcId(i));
            let e = self.res.edge_of_arc[i as usize];
            let (_, _, old_cost, old_headroom) = self.res.arc_state(e);
            if old_cost != new.cost {
                self.res.set_cost_of(e, new.cost);
                self.res.set_cost_of(e ^ 1, -new.cost);
            }
            // Residual capacities are in the lower-bound-reduced space.
            let headroom = new.capacity - new.lower_bound;
            if old_headroom != headroom {
                let flow = self.res.flow_on(e);
                if headroom >= flow {
                    self.res.set_cap_of(e, headroom - flow);
                } else {
                    // The arc now carries more than it may: strip the
                    // surplus, leaving an excess at the tail to re-route.
                    self.res.set_cap_of(e, 0);
                    self.res.set_cap_of(e ^ 1, headroom);
                    let stripped = flow - headroom;
                    self.excess[self.res.tail(e)] += stripped;
                    self.excess[self.res.head(e)] -= stripped;
                }
            }
        }
        if df != 0 {
            // "Exactly target units from s to t" is a virtual t -> s arc of
            // that value; changing it imbalances s and t directly. A
            // decrease (df < 0) symmetrically asks the drain to return flow
            // from t to s through backward residual edges.
            self.excess[self.s] += df;
            self.excess[self.t] -= df;
        }

        // Step 2: re-certify. Price refinement first — cost drift that does
        // not change the optimal flow (the common case on a parameter
        // sweep) is absorbed into the potentials without disturbing the
        // flow at all. If violations survive the sweeps (a negative
        // residual cycle: the optimum genuinely moved), cancel the cycles
        // in place — flow moves only where the optimum did — and refine
        // again; only when even that leaves frozen nodes (relaxation
        // chains deeper than the refinement budget, or a region the
        // potentials never covered) fall back to saturating the negative
        // edges so the drain can re-route them. After either pass all
        // positive-capacity residual edges between reachable nodes have
        // non-negative reduced cost again.
        self.recheck_all = false;
        if !self.refine_prices() && !self.cancel_retained_cycles() {
            for e in 0..self.res.edge_count() as u32 {
                self.saturate_if_negative(e);
            }
        }

        // A delta batch that unbalances a large fraction of the network
        // would spend more Dijkstra rounds draining than a cold solve
        // spends augmenting; hand those to the cold path.
        let surplus: i64 = self.excess.iter().filter(|&&x| x > 0).sum();
        let budget = (net.arc_count() as i64 / 4).max(16) + target.max(0);
        if surplus > budget {
            return Ok(Warm::Fallback);
        }

        // Step 3: drain the imbalance along shortest reduced-cost paths.
        if !self.drain()? {
            // Some deficit is unreachable: the new point is infeasible.
            // Fall back so the cold solve produces the authoritative
            // required/achieved figures.
            return Ok(Warm::Fallback);
        }

        self.target = target;
        Ok(Warm::Done(solution_from_residual(net, &self.res, target)))
    }

    /// Queue-driven Bellman–Ford relaxation restoring the reduced-cost
    /// certificate by *lowering potentials*: a violated edge `u → v` gets
    /// `π_v = π_u + c(e)`, the largest value satisfying it. Violations with
    /// no negative residual cycle through them converge this way — the
    /// retained flow stays optimal and no excess is created. A node on (or
    /// fed by) a negative residual cycle would be lowered forever; after
    /// [`Self::MAX_RELAX`] lowerings a node is frozen instead, bounding how
    /// far cycle-driven lowering can deflate the prices (unbounded lowering
    /// makes *more* edges look negative at saturation time, inflating the
    /// drain far beyond the genuine flow change). Returns `true` when the
    /// queue drains with no node frozen — the certificate holds and no flow
    /// has to move; `false` otherwise, and the caller saturates whatever is
    /// still negative so the drain can re-route it.
    fn refine_prices(&mut self) -> bool {
        // The refinement works on a plain potential slice; copy out and
        // back.
        let n = self.res.node_count();
        let mut pot: Vec<i64> = self.ws.node[..n].iter().map(|st| st.potential).collect();
        let ok = refine_prices_raw(&self.res, &mut pot);
        for (st, &p) in self.ws.node[..n].iter_mut().zip(&pot) {
            st.potential = p;
        }
        ok
    }

    /// Fallback for a failed price refinement: cancels every negative
    /// residual cycle directly on the retained residual with a
    /// label-correcting repair ([`converge_prices`]), which also leaves
    /// valid potentials. A cycle push moves flow only around cycles
    /// the cost drift actually created — unlike saturating each violated
    /// edge, which converts whole swaths of the graph into excess for the
    /// drain to re-route (the over-routing a sweep's drained-unit counters
    /// used to show). Cancelled units count toward `pushed_units`.
    /// Cancellation is free to route through *any* node, so it is only sound
    /// when the potentials cover all of them — an uncovered node would dodge
    /// the certificate; returns `false` (the caller saturates instead) in
    /// that case or when the repair gives up, leaving the potentials as they
    /// were.
    fn cancel_retained_cycles(&mut self) -> bool {
        let n = self.res.node_count();
        if self.ws.node[..n].iter().any(|st| st.potential >= INF) {
            return false;
        }
        let mut pot: Vec<i64> = self.ws.node[..n].iter().map(|st| st.potential).collect();
        let ok = converge_prices(&mut self.res, &mut pot, &mut self.ws.pushed_units);
        if ok {
            for (st, &p) in self.ws.node[..n].iter_mut().zip(&pot) {
                st.potential = p;
            }
        }
        ok
    }

    /// Saturates residual edge `e` if its reduced cost is negative,
    /// recording the imbalance, exactly like the cold solver's
    /// initialisation treats negative arcs. Edges incident to nodes the
    /// potentials never covered are out of bounds, as everywhere else.
    fn saturate_if_negative(&mut self, e: u32) {
        let cap = self.res.cap_of(e);
        if cap <= 0 {
            return;
        }
        let u = self.res.tail(e);
        let v = self.res.head(e);
        let (pu, pv) = (self.ws.node[u].potential, self.ws.node[v].potential);
        if pu >= INF || pv >= INF {
            return;
        }
        if self.res.cost_of(e) + pu - pv < 0 {
            self.res.push(e, cap);
            self.excess[u] -= cap;
            self.excess[v] += cap;
        }
    }

    /// Routes every positive excess to a deficit along shortest
    /// reduced-cost paths (multi-source Dijkstra per round, potentials
    /// updated like the cold solver's rounds). Returns `false` if a deficit
    /// cannot be reached — the repaired problem is infeasible.
    fn drain(&mut self) -> Result<bool, NetflowError> {
        let budget = self.ws.budget;
        let mut rounds = 0u64;
        loop {
            budget.check_rounds("reopt", "drain", rounds)?;
            rounds += 1;
            self.ws.begin_round();
            let mut balanced = true;
            for v in 0..self.excess.len() {
                if self.excess[v] > 0 {
                    if self.ws.node[v].potential >= INF {
                        // Imbalance in a region the potentials never
                        // covered; only synthetic states could produce
                        // this — refuse rather than guess.
                        return Ok(false);
                    }
                    self.ws.set_dist(v, 0);
                    self.ws.parent_edge[v] = u32::MAX;
                    self.ws.bottleneck_to[v] = self.excess[v];
                    self.ws.heap.push(0, v as u32);
                    balanced = false;
                }
            }
            if balanced {
                return Ok(true);
            }
            let Some((sink, dist)) = self.drain_round() else {
                return Ok(false);
            };
            update_potentials(&mut self.ws, dist);
            let amount = self.ws.bottleneck_to[sink].min(-self.excess[sink]);
            debug_assert!(amount > 0);
            let mut v = sink;
            while self.ws.parent_edge[v] != u32::MAX {
                let e = self.ws.parent_edge[v];
                self.res.push(e, amount);
                v = self.res.tail(e);
            }
            self.ws.pushed_units += amount as u64;
            self.excess[v] -= amount;
            self.excess[sink] += amount;
        }
    }

    /// One Dijkstra round from the pre-seeded excess frontier, stopping at
    /// the first settled deficit node. Returns `(node, distance)`, or `None`
    /// if no deficit is reachable.
    fn drain_round(&mut self) -> Option<(usize, i64)> {
        while let Some((d, u)) = self.ws.pop_frontier() {
            let u = u as usize;
            debug_assert_eq!(d, self.ws.dist_of(u), "the frontier pops live labels only");
            self.ws.settled_nodes += 1;
            if self.excess[u] < 0 {
                return Some((u, d));
            }
            let pu = self.ws.node[u].potential;
            if pu >= INF {
                continue;
            }
            let bu = self.ws.bottleneck_to[u];
            for slot in self.res.active_slots(u) {
                let cap = self.res.slots[slot].cap;
                if cap <= 0 {
                    continue;
                }
                let v = self.res.slots[slot].to as usize;
                if self.ws.node[v].potential >= INF {
                    // Same reasoning as the cold solver's rounds: nodes the
                    // initialisation proved unreachable stay out of bounds.
                    continue;
                }
                let reduced = self.res.slots[slot].cost + pu - self.ws.node[v].potential;
                debug_assert!(reduced >= 0, "negative reduced cost in drain");
                let nd = d + reduced;
                if nd < self.ws.dist_of(v) {
                    self.ws.set_dist(v, nd);
                    self.ws.parent_edge[v] = self.res.slots[slot].edge;
                    self.ws.bottleneck_to[v] = bu.min(cap);
                    self.ws.heap.push(nd, v as u32);
                }
            }
        }
        None
    }
}

/// Queue-driven Bellman–Ford relaxation restoring the reduced-cost
/// certificate by *lowering potentials*: a violated edge `u → v` gets
/// `π_v = π_u + c(e)`, the largest value satisfying it. Violations with
/// no negative residual cycle through them converge this way — the
/// retained flow stays optimal and no excess is created. A node on (or
/// fed by) a negative residual cycle would be lowered forever; after
/// `MAX_RELAX` lowerings a node is frozen instead, bounding how far
/// cycle-driven lowering can deflate the prices (unbounded lowering makes
/// *more* edges look negative at saturation time, inflating the repair far
/// beyond the genuine flow change). Returns `true` when the queue drains
/// with no node frozen — `pot` is then a valid potential and the current
/// flow is optimal at its value; `false` otherwise.
///
/// Takes a plain slice rather than the workspace `NodeState` array so the
/// warm-start repair can run it on a scratch copy of the potentials.
pub(crate) fn refine_prices_raw(res: &Residual, pot: &mut [i64]) -> bool {
    // A node lowered this many times sits on or behind a negative
    // cycle; genuine propagation chains re-lower a node only when
    // distinct violation fronts meet, which a small constant covers.
    const MAX_RELAX: u8 = 8;
    let n = res.node_count();
    let mut lowered = vec![0u8; n];
    let mut in_queue = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut frozen = false;
    // One full sweep seeds the queue with every violated edge's head;
    // after that, work is proportional to the affected region.
    let relax = |u: usize,
                 pot: &mut [i64],
                 queue: &mut std::collections::VecDeque<u32>,
                 lowered: &mut [u8],
                 in_queue: &mut [bool],
                 frozen: &mut bool| {
        let pu = pot[u];
        if pu >= INF {
            return;
        }
        for slot in res.active_slots(u) {
            if res.slots[slot].cap <= 0 {
                continue;
            }
            let v = res.slots[slot].to as usize;
            if pot[v] >= INF {
                continue;
            }
            let bound = pu + res.slots[slot].cost;
            if bound < pot[v] {
                if lowered[v] >= MAX_RELAX {
                    *frozen = true;
                    continue;
                }
                lowered[v] += 1;
                pot[v] = bound;
                if !in_queue[v] {
                    in_queue[v] = true;
                    queue.push_back(v as u32);
                }
            }
        }
    };
    for u in 0..n {
        relax(u, pot, &mut queue, &mut lowered, &mut in_queue, &mut frozen);
    }
    // Each pop scans one node's slots; the cap over all pops is
    // MAX_RELAX enqueues per node, so the total work is bounded by
    // MAX_RELAX full sweeps even in the worst case.
    while let Some(u) = queue.pop_front() {
        let u = u as usize;
        in_queue[u] = false;
        relax(u, pot, &mut queue, &mut lowered, &mut in_queue, &mut frozen);
    }
    !frozen
}

/// Per-node lowering count between parent-graph cycle probes: cheap enough
/// that a genuine cycle is caught within a couple of laps, rare enough that
/// legitimate long correction chains pay almost nothing.
const WALK_PERIOD: u32 = 16;

/// Negative-cycle cancellations the repair will perform before giving up;
/// the caller then saturates the violated edges instead.
const MAX_CANCELS: u32 = 256;

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
/// residual, with **no** freeze heuristic: unlike the price refinement
/// ([`refine_prices_raw`]), which caps per-node relaxations at a small
/// constant tuned for local perturbations, the repair runs after that
/// refinement gave up and legitimately needs many corrections.
///
/// One pass over every node lowers the heads of the violated edges; from
/// there, lowered nodes are relaxed most-lowered first. That is Dijkstra's
/// order for the lowering amounts over the edges the entry potentials
/// already certify, so a node is normally relaxed once; only the few
/// violated edges can lower an already relaxed node again.
///
/// When the parent graph closes a cycle — a genuine negative-cost residual
/// cycle, i.e. retained flow that the new costs let a cheaper detour
/// undercut — the cycle is cancelled directly on the residual
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
    use crate::{min_cost_flow, validate, ArcId};

    /// s -> a -> t and a bypass s -> t, everything capacity 2.
    fn sweep_net() -> (FlowNetwork, NodeId, NodeId, ArcId, ArcId, ArcId) {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        let sa = net.add_arc(s, a, 2, 1).unwrap();
        let at = net.add_arc(a, t, 2, 1).unwrap();
        let st = net.add_arc(s, t, 2, 5).unwrap();
        (net, s, t, sa, at, st)
    }

    fn assert_matches_cold(
        reopt: &mut Reoptimizer,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        f: i64,
    ) {
        let warm = reopt.solve(net, s, t, f);
        let cold = min_cost_flow(net, s, t, f);
        match (warm, cold) {
            (Ok(w), Ok(c)) => {
                assert_eq!(w.cost, c.cost, "objective diverged");
                assert_eq!(w.value, c.value);
                validate(net, s, t, &w).unwrap();
            }
            (Err(w), Err(c)) => assert_eq!(w, c, "errors diverged"),
            (w, c) => panic!("feasibility diverged: warm {w:?} vs cold {c:?}"),
        }
    }

    #[test]
    fn cost_increase_reroutes_warm() {
        let (mut net, s, t, _, at, _) = sweep_net();
        let mut reopt = Reoptimizer::new();
        assert_eq!(reopt.solve(&net, s, t, 2).unwrap().cost, 4);
        net.set_arc_cost(at, 9);
        let sol = reopt.solve(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, 10); // both units via the bypass now
        validate(&net, s, t, &sol).unwrap();
        assert_eq!(reopt.warm_solves(), 1);
        assert_eq!(reopt.cold_solves(), 1);
    }

    #[test]
    fn cost_decrease_attracts_flow_warm() {
        let (mut net, s, t, _, _, st) = sweep_net();
        let mut reopt = Reoptimizer::new();
        assert_eq!(reopt.solve(&net, s, t, 2).unwrap().cost, 4);
        net.set_arc_cost(st, 0);
        let sol = reopt.solve(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, 0);
        validate(&net, s, t, &sol).unwrap();
        assert_eq!(reopt.warm_solves(), 1);
    }

    #[test]
    fn capacity_cut_below_current_flow_strips_and_reroutes() {
        let (mut net, s, t, sa, _, _) = sweep_net();
        let mut reopt = Reoptimizer::new();
        assert_eq!(reopt.solve(&net, s, t, 2).unwrap().cost, 4);
        net.set_arc_capacity(sa, 1).unwrap();
        let sol = reopt.solve(&net, s, t, 2).unwrap();
        assert_eq!(sol.cost, 2 + 5); // one unit stays on a, one rerouted
        validate(&net, s, t, &sol).unwrap();
        assert_eq!(reopt.warm_solves(), 1);
    }

    #[test]
    fn target_changes_route_through_existing_state() {
        let (net, s, t, ..) = sweep_net();
        let mut reopt = Reoptimizer::new();
        for f in [1, 3, 2, 4, 0, 2] {
            assert_matches_cold(&mut reopt, &net, s, t, f);
        }
        assert!(reopt.warm_solves() >= 4);
    }

    #[test]
    fn identical_problem_resolves_without_work() {
        let (net, s, t, ..) = sweep_net();
        let mut reopt = Reoptimizer::new();
        let first = reopt.solve(&net, s, t, 2).unwrap();
        let second = reopt.solve(&net, s, t, 2).unwrap();
        assert_eq!(first.flows, second.flows);
        assert_eq!(reopt.warm_solves(), 1);
    }

    /// Raises `v`'s retained potential far past every incident cost, so any
    /// open residual edge into `v` gets a negative reduced cost.
    fn corrupt_potential(reopt: &mut Reoptimizer, v: NodeId) {
        let state = reopt.state.as_mut().expect("a solve retained state");
        state.ws.node[v.index()].potential += 100;
    }

    #[test]
    fn corrupted_retained_flow_fails_the_certificate() {
        // At F = 2 both units take s -> a -> t. Re-solving the identical
        // problem repairs nothing, so each corruption reaches the
        // certificate as it is.
        let (net, s, t, sa, at, _) = sweep_net();
        let mut reopt = Reoptimizer::new();
        reopt.solve(&net, s, t, 2).unwrap();
        // Flow: return one unit of a -> t, so a keeps it.
        let state = reopt.state.as_mut().unwrap();
        state.res.push(state.res.edge_of_arc[at.index()] ^ 1, 1);
        let err = reopt.solve(&net, s, t, 2).unwrap_err().to_string();
        assert!(err.contains("violates conservation"), "{err}");

        // Capacity: s -> a claims 3 units of flow at an unchanged headroom
        // of 2, so the warm path sees no delta.
        reopt.solve(&net, s, t, 2).unwrap();
        let state = reopt.state.as_mut().unwrap();
        let e = state.res.edge_of_arc[sa.index()];
        state.res.set_cap_of(e, -1);
        state.res.set_cap_of(e ^ 1, 3);
        let err = reopt.solve(&net, s, t, 2).unwrap_err().to_string();
        assert!(err.contains("outside [0, 2]"), "{err}");
    }

    #[test]
    fn corrupted_retained_state_fails_the_certificate() {
        // At F = 2 both units take s -> a -> t, so the bypass s -> t stays
        // open. Re-solving the identical problem repairs nothing, so the
        // corrupted potential reaches the certificate as it is.
        let (net, s, t, ..) = sweep_net();
        let mut reopt = Reoptimizer::new();
        reopt.solve(&net, s, t, 2).unwrap();
        corrupt_potential(&mut reopt, t);
        let err = reopt.solve(&net, s, t, 2).unwrap_err();
        assert!(matches!(err, NetflowError::InvalidSolution { .. }), "{err}");
        let cold = reopt.cold_solves();
        reopt.solve(&net, s, t, 2).unwrap();
        assert_eq!(
            reopt.cold_solves(),
            cold + 1,
            "a failed certificate drops the state"
        );

        // Through the fallback chain: one incident, and the answer is the
        // cold SSP optimum.
        corrupt_potential(&mut reopt, t);
        let mut chain = crate::ResilientSolver::new(crate::Backend::Ssp);
        let sol = chain
            .solve_with_fallback(&mut reopt, &net, s, t, 2)
            .unwrap();
        let cold = min_cost_flow(&net, s, t, 2).unwrap();
        assert_eq!(chain.incident_count(), 1);
        assert_eq!(chain.incidents()[0].backend, "reopt");
        assert_eq!((sol.cost, &sol.flows), (cold.cost, &cold.flows));
    }

    #[test]
    fn per_arc_rescale_keeps_sweep_warm_and_exact() {
        let (mut net, s, t, sa, at, st) = sweep_net();
        let mut reopt = Reoptimizer::new();
        assert_eq!(reopt.solve(&net, s, t, 2).unwrap().cost, 4);
        // Double the chain-path costs, leave the bypass alone — the shape a
        // per-class hint describes exactly.
        net.set_arc_cost(sa, 2);
        net.set_arc_cost(at, 2);
        let bypass = st.index();
        reopt.costs_rescaled_per_arc(|i| if i == bypass { 1.0 } else { 2.0 });
        assert_matches_cold(&mut reopt, &net, s, t, 2);
        assert_eq!(reopt.warm_solves(), 1);
    }

    #[test]
    fn unusable_per_arc_hints_are_harmless() {
        let (mut net, s, t, _, at, _) = sweep_net();
        let mut reopt = Reoptimizer::new();
        reopt.solve(&net, s, t, 2).unwrap();
        net.set_arc_cost(at, 9);
        // A nonsense hint may cost repair time, never correctness.
        reopt.costs_rescaled_per_arc(|i| if i % 2 == 0 { f64::NAN } else { -3.0 });
        assert_matches_cold(&mut reopt, &net, s, t, 2);
    }

    #[test]
    fn topology_change_falls_back_cold() {
        let (net, s, t, ..) = sweep_net();
        let mut reopt = Reoptimizer::new();
        reopt.solve(&net, s, t, 2).unwrap();
        let mut bigger = net.clone();
        let b = bigger.add_node();
        bigger.add_arc(s, b, 1, 0).unwrap();
        bigger.add_arc(b, t, 1, 0).unwrap();
        let sol = reopt.solve(&bigger, s, t, 2).unwrap();
        assert_eq!(sol.cost, 2); // s->b->t (0) + s->a->t (2)... cheapest two units
        assert_eq!(reopt.warm_solves(), 0);
        assert_eq!(reopt.cold_solves(), 2);
    }

    #[test]
    fn infeasible_point_mid_sweep_then_recovery() {
        let (mut net, s, t, sa, at, st) = sweep_net();
        let mut reopt = Reoptimizer::new();
        assert_matches_cold(&mut reopt, &net, s, t, 2);
        // Choke every path below the target.
        net.set_arc_capacity(sa, 0).unwrap();
        net.set_arc_capacity(st, 1).unwrap();
        assert_matches_cold(&mut reopt, &net, s, t, 2); // both infeasible
        net.set_arc_capacity(sa, 2).unwrap();
        net.set_arc_capacity(st, 2).unwrap();
        let _ = at;
        assert_matches_cold(&mut reopt, &net, s, t, 2); // recovers
    }

    #[test]
    fn lower_bound_change_falls_back_cold() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_arc_bounded(s, a, 0, 2, 7).unwrap();
        net.add_arc(a, t, 2, 0).unwrap();
        net.add_arc(s, t, 2, 1).unwrap();
        let mut reopt = Reoptimizer::new();
        assert_matches_cold(&mut reopt, &net, s, t, 2);
        let mut forced = FlowNetwork::new();
        let s2 = forced.add_node();
        let a2 = forced.add_node();
        let t2 = forced.add_node();
        forced.add_arc_bounded(s2, a2, 1, 2, 7).unwrap();
        forced.add_arc(a2, t2, 2, 0).unwrap();
        forced.add_arc(s2, t2, 2, 1).unwrap();
        assert_matches_cold(&mut reopt, &forced, s2, t2, 2);
        assert_eq!(reopt.warm_solves(), 0);
    }

    #[test]
    fn long_mixed_delta_sweep_matches_cold() {
        // A denser network and a scripted sweep mixing all delta kinds.
        let mut net = FlowNetwork::new();
        let n: Vec<_> = (0..6).map(|_| net.add_node()).collect();
        let (s, t) = (n[0], n[5]);
        let mut arcs = Vec::new();
        for (u, v, cap, cost) in [
            (0, 1, 3, 2),
            (0, 2, 2, 4),
            (1, 3, 2, 1),
            (2, 3, 3, 1),
            (1, 4, 2, 6),
            (3, 4, 3, 0),
            (3, 5, 2, 3),
            (4, 5, 4, 1),
            (0, 5, 2, 9),
        ] {
            arcs.push(net.add_arc(n[u], n[v], cap, cost).unwrap());
        }
        let mut reopt = Reoptimizer::new();
        assert_matches_cold(&mut reopt, &net, s, t, 4);
        let script: [(usize, Option<i64>, Option<i64>, i64); 6] = [
            (2, Some(8), None, 4),     // cost bump on a used arc
            (7, None, Some(1), 4),     // capacity cut below flow
            (8, Some(1), None, 5),     // cheap bypass + larger target
            (3, Some(-2), Some(5), 3), // negative cost + capacity + smaller F
            (0, None, Some(1), 3),     // squeeze the main source arc
            (0, None, Some(3), 5),     // and relax it again
        ];
        for (arc, cost, cap, f) in script {
            if let Some(c) = cost {
                net.set_arc_cost(arcs[arc], c);
            }
            if let Some(c) = cap {
                net.set_arc_capacity(arcs[arc], c).unwrap();
            }
            assert_matches_cold(&mut reopt, &net, s, t, f);
        }
        assert!(reopt.warm_solves() >= 5, "sweep should stay warm");
    }
}
