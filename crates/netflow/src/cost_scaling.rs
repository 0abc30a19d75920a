//! Goldberg–Tarjan cost-scaling min-cost flow (push-relabel with ε-scaling).
//!
//! The second backend, beside SSP: instead of augmenting along shortest
//! paths, maintain a *feasible flow* whose residual reduced costs are kept ≥ −ε for a shrinking
//! ε. Costs are scaled by `n + 1`, ε starts at the largest scaled cost and is
//! divided by [`ALPHA`] per phase; once ε reaches 1 in the scaled domain
//! (i.e. below `1/n` in the original), ε-optimality implies exact optimality,
//! because any residual cycle's cost is an integer multiple of `n + 1` and
//! strictly greater than `−n · ε > −(n + 1)`.
//!
//! Each `refine` phase saturates every negative-reduced-cost residual arc
//! (turning ε·α-optimality into a pseudo-flow that is trivially ε-optimal)
//! and then discharges active nodes FIFO push-relabel style until flow
//! conservation is restored. Three of the heuristics Király–Kovács
//! ("Efficient implementations of minimum-cost flow algorithms",
//! arXiv 1207.6381) found decisive are implemented:
//!
//! * **push-lookahead** — before pushing into a node with no admissible
//!   out-arc, relabel *it* instead; the price drop usually kills the
//!   admissibility of the arc we were about to push, avoiding a
//!   push/push-back ping-pong;
//! * **price refinement** — at each phase start, try to certify that the
//!   current flow is already ε-optimal by solving shortest paths with
//!   lengths `c_p(e) + ε` (a bounded SPFA); success replaces the whole
//!   phase with a price update;
//! * **set-relabel** — every ~`4n` relabels, a backward 0/1-BFS from the
//!   deficit nodes recomputes how many ε-steps each node is from a deficit
//!   and drops prices in bulk (the cost-scaling analogue of max-flow's
//!   global relabelling), followed by a saturation sweep that restores the
//!   ε-optimality invariant on arcs into nodes the BFS could not reach.
//!
//! Two start-state optimisations sit on top (see `cost_scaling_run`): the
//! feasibility max-flow is rolled back via the residual arena's journal and
//! re-seeded as a source/sink imbalance (*pseudo-flow start*, so phase 1
//! routes the requirement instead of un-routing Dinic's cost-blind paths),
//! and prices are *warm-started* from exact shortest-path potentials, after
//! which later phases usually reduce to price-refine certifications. The ε
//! ladder still descends from `cmax` — collapsing it would void the
//! per-phase relabel bound (see the price-war note in `cost_scaling_run`).
//!
//! The solver never reports [`NetflowError::NegativeCycle`]: unlike SSP, it
//! handles negative-cost cycles natively by saturating them (they appear as
//! negative reduced costs at ε₀) and charging their cost to the solution.

use crate::dinic::dinic;
use crate::graph::{FlowNetwork, NodeId};
use crate::residual::Residual;
use crate::ssp::{check_endpoints_with, solution_from_residual, transform_into, valid_potentials};
use crate::workspace::{with_thread_workspace, SolverWorkspace};
use crate::{FlowSolution, NetflowError};
use std::collections::VecDeque;

/// ε divisor per refine phase. Király–Kovács report the sweet spot for
/// FIFO push-relabel implementations between 8 and 24.
const ALPHA: i128 = 16;

/// Solves for a minimum-cost flow of exactly `target` units from `s` to
/// `t` with Goldberg–Tarjan cost scaling, honouring arc lower bounds.
///
/// Unlike the SSP-family solvers, negative-cost cycles are handled natively
/// (their flow is part of the minimum-cost solution), so this backend never
/// returns [`NetflowError::NegativeCycle`].
///
/// # Errors
///
/// * [`NetflowError::Infeasible`] if no feasible flow of value `target`
///   exists.
/// * [`NetflowError::InvalidArc`] for invalid endpoints or target.
/// * [`NetflowError::BudgetExceeded`] under an exhausted
///   [`SolveBudget`](crate::SolveBudget).
///
/// # Examples
///
/// ```
/// use lemra_netflow::{min_cost_flow_cost_scaling, FlowNetwork};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, a, b, t) = (net.add_node(), net.add_node(), net.add_node(), net.add_node());
/// net.add_arc(s, a, 2, 1)?;
/// net.add_arc(a, t, 2, 1)?;
/// net.add_arc(s, b, 2, 5)?;
/// net.add_arc(b, t, 2, 5)?;
/// let sol = min_cost_flow_cost_scaling(&net, s, t, 2)?;
/// assert_eq!(sol.cost, 4); // both units take the cheap route
/// # Ok(())
/// # }
/// ```
pub fn min_cost_flow_cost_scaling(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
) -> Result<FlowSolution, NetflowError> {
    with_thread_workspace(|ws| min_cost_flow_cost_scaling_with(net, s, t, target, ws))
}

/// [`min_cost_flow_cost_scaling`] with an explicit [`SolverWorkspace`].
///
/// # Errors
///
/// Same as [`min_cost_flow_cost_scaling`].
pub fn min_cost_flow_cost_scaling_with(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: i64,
    ws: &mut SolverWorkspace,
) -> Result<FlowSolution, NetflowError> {
    check_endpoints_with(net, s, t, target, ws)?;

    // Leased via guard so the arena returns to the pool even on panic.
    let mut guard = ws.lease_arena();
    let (res, ws) = guard.parts();
    let (super_s, super_t, required) = transform_into(net, s, t, target, res);

    let pushed = cost_scaling_run(res, super_s, super_t, required, ws)?;
    if pushed < required {
        return Err(NetflowError::Infeasible {
            required,
            achieved: pushed,
        });
    }
    Ok(solution_from_residual(net, res, target))
}

/// Feasibility max-flow, then ε-scaling refine phases down to exactness.
/// Returns the units moved from `s` to `t` (the caller maps a shortfall to
/// [`NetflowError::Infeasible`]).
fn cost_scaling_run(
    res: &mut Residual,
    s: usize,
    t: usize,
    required: i64,
    ws: &mut SolverWorkspace,
) -> Result<i64, NetflowError> {
    let n = res.node_count();
    ws.prepare(n);
    let budget = ws.budget;

    // Phase 0 is the cost-blind feasibility max-flow; it counts against the
    // round budget so a zero-round budget trips before any flow moves.
    budget.check_rounds("cost_scaling", "refine", 0)?;
    let achieved = dinic(res, s, t);
    if achieved < required {
        return Ok(achieved);
    }

    // Scaled-cost domain: multiplying by n + 1 makes "ε < 1 original unit"
    // representable as ε = 1, the loop's exact termination point.
    let scale = n as i128 + 1;
    let cmax = res
        .slots
        .iter()
        .map(|sl| (sl.cost as i128).abs())
        .max()
        .unwrap_or(0)
        * scale;
    if cmax == 0 {
        // All costs zero: any feasible flow is optimal.
        return Ok(achieved);
    }

    ws.price.clear();
    ws.price.resize(n, 0);
    ws.excess.clear();
    ws.excess.resize(n, 0);
    ws.cursor.clear();
    ws.cursor.resize(n, 0);

    // The max-flow above only *certifies* feasibility — as a starting point
    // it is poison: it routes cost-blind, and the first refine phase spends
    // most of its pushes undoing that misrouting through backward arcs.
    // Rewind to the pristine zero flow (the journal makes this O(pushes))
    // and seed the requirement as a node imbalance instead, the classic
    // pseudo-flow start; the first refine then routes the requirement along
    // ε-admissible arcs directly. Zero flow is trivially ε₀-optimal. When
    // the journal is unavailable (foreign build path) the balanced max-flow
    // start below remains correct, merely slower.
    let pseudo = res.rollback();
    if pseudo {
        ws.excess[s] = i128::from(required);
        ws.excess[t] = -i128::from(required);
        // Warm-start prices: with zero flow, exact shortest-path potentials
        // (the SSP machinery; one relaxation pass on the DAGs the allocator
        // produces) scale into prices under which *every* residual arc has
        // c_p ≥ 0. Phase 1's saturation sweep then moves nothing and its
        // pushes follow shortest paths from the start; once the flow is
        // balanced the prices stay near-exact, so later phases mostly
        // collapse into `price_refine` certifications. The ε ladder itself
        // is kept at full height: starting it near 1 looks tempting (the
        // start is already 0-optimal) but breaks the O(n·α) relabel bound —
        // a unit-capacity instance whose second-cheapest s→t path costs g
        // more than the cheapest forces a relabel *price war* that walks
        // the whole gap in ε-sized steps, Θ(g/ε) relabels, unbounded by n.
        // With ε₀ = cmax/α every gap is covered in at most n·α steps.
        // `valid_potentials` seeds every node (virtual zero-cost source to
        // all of them), so validity holds on every arc regardless of
        // reachability from the super-source; it only fails on a negative
        // residual cycle, where zero prices (c_p ≥ −cmax by definition)
        // remain the sound ladder start.
        if valid_potentials(res, ws).is_ok() {
            for v in 0..n {
                ws.price[v] = scale * i128::from(ws.node[v].potential);
            }
        }
    }

    // The starting flow is ε₀-optimal for ε₀ = cmax under zero prices (and
    // 0-optimal under warm-started prices).
    let mut eps = cmax;
    let mut phases = 0u64;
    loop {
        eps = (eps / ALPHA).max(1);
        phases += 1;
        budget.check_rounds("cost_scaling", "refine", phases)?;
        // The first phase must run a full refine while the seeded imbalance
        // is outstanding: price refinement only certifies ε-optimality of a
        // *balanced* flow and would skip the discharge that drains it.
        let balanced = phases > 1 || !pseudo;
        if !(balanced && price_refine(res, ws, scale, eps)) {
            refine(res, ws, scale, eps, budget, phases)?;
        }
        if eps == 1 {
            return Ok(achieved);
        }
    }
}

/// Scaled reduced cost of the residual arc stored in `slot` fields, under
/// the workspace prices.
#[inline]
fn reduced(scale: i128, cost: i64, pu: i128, pv: i128) -> i128 {
    scale * cost as i128 + pu - pv
}

/// Tries to certify that the current flow is already ε-optimal by finding
/// prices with `c_p(e) ≥ −ε` on every residual arc: shortest paths from a
/// virtual source over lengths `c_p(e) + ε` (all-zero initial labels). The
/// SPFA is bounded — certifying must stay much cheaper than the refine it
/// replaces — so a hard cap on queue pops makes failure cheap and
/// deterministic; on success the labels fold into the prices and the whole
/// refine phase is skipped.
fn price_refine(res: &Residual, ws: &mut SolverWorkspace, scale: i128, eps: i128) -> bool {
    let n = res.node_count();
    // `price` doubles as the label array: d[v] starts 0 everywhere (virtual
    // source), so labels are price deltas accumulated in a scratch vec.
    let mut d = std::mem::take(&mut ws.dist_scratch);
    d.clear();
    d.resize(n, 0);
    ws.queue.clear();
    ws.in_queue[..n].fill(true);
    for v in 0..n {
        ws.queue.push_back(v as u32);
    }
    let mut pops = 0usize;
    let cap = 4 * n + 16;
    let mut ok = true;
    while let Some(u) = ws.queue.pop_front() {
        pops += 1;
        if pops > cap {
            ok = false;
            break;
        }
        let u = u as usize;
        ws.in_queue[u] = false;
        let du = d[u];
        for sl in &res.slots[res.active_slots(u)] {
            if sl.cap <= 0 {
                continue;
            }
            let v = sl.to as usize;
            let nd = du + reduced(scale, sl.cost, ws.price[u], ws.price[v]) + eps;
            if nd < d[v] {
                d[v] = nd;
                if !ws.in_queue[v] {
                    ws.in_queue[v] = true;
                    ws.queue.push_back(v as u32);
                }
            }
        }
    }
    if ok {
        for (price, dv) in ws.price[..n].iter_mut().zip(&d[..n]) {
            *price += dv;
        }
    }
    ws.dist_scratch = d;
    ok
}

/// One ε-phase: saturate every negative-reduced-cost arc, then FIFO
/// discharge until no node holds positive excess. Establishes ε-optimality.
fn refine(
    res: &mut Residual,
    ws: &mut SolverWorkspace,
    scale: i128,
    eps: i128,
    budget: crate::budget::SolveBudget,
    phases: u64,
) -> Result<(), NetflowError> {
    let n = res.node_count();

    // Saturation: after this, every residual arc has c_p ≥ 0 and all
    // imbalance sits in `ws.excess`.
    saturate(res, ws, scale, i128::MIN, 0);

    ws.queue.clear();
    for u in 0..n {
        ws.cursor[u] = 0;
        ws.in_queue[u] = ws.excess[u] > 0;
        if ws.excess[u] > 0 {
            ws.queue.push_back(u as u32);
        }
    }

    let mut relabels = 0usize;
    let set_relabel_period = (4 * n).max(16);
    while let Some(u) = ws.queue.pop_front() {
        let u = u as usize;
        ws.in_queue[u] = false;
        // Discharge u: push on admissible arcs from the current-arc cursor,
        // relabelling when the arc list is exhausted, until its excess is
        // gone. The cursor range is re-read every step because pushes can
        // activate dormant reverse arcs (growing the active prefix).
        while ws.excess[u] > 0 {
            let range = res.active_slots(u);
            let idx = range.start + ws.cursor[u] as usize;
            if idx >= range.end {
                relabel(res, ws, scale, eps, u);
                relabels += 1;
                if relabels % set_relabel_period == 0 {
                    // Deadline responsiveness inside long phases; the round
                    // count itself only advances per phase.
                    budget.check_rounds("cost_scaling", "discharge", phases)?;
                    set_relabel(res, ws, scale, eps);
                }
                continue;
            }
            let sl = res.slots[idx];
            if sl.cap > 0 {
                let v = sl.to as usize;
                if reduced(scale, sl.cost, ws.price[u], ws.price[v]) < 0 {
                    // Push-lookahead: a node with no admissible out-arc
                    // would bounce the flow straight back after a relabel;
                    // relabelling it *now* usually raises c_p(u→v) above
                    // zero and we skip the push entirely. Deficit nodes
                    // absorb flow and are exempt.
                    if ws.excess[v] >= 0 && !has_admissible(res, ws, scale, v) {
                        relabel(res, ws, scale, eps, v);
                        relabels += 1;
                        if relabels % set_relabel_period == 0 {
                            budget.check_rounds("cost_scaling", "discharge", phases)?;
                            set_relabel(res, ws, scale, eps);
                        }
                        continue;
                    }
                    let amount = sl.cap.min(ws.excess[u].min(i64::MAX as i128) as i64);
                    res.push(sl.edge, amount);
                    ws.excess[u] -= amount as i128;
                    ws.excess[v] += amount as i128;
                    ws.pushed_units += amount as u64;
                    if ws.excess[v] > 0 && !ws.in_queue[v] {
                        ws.in_queue[v] = true;
                        ws.queue.push_back(v as u32);
                    }
                    continue;
                }
            }
            ws.cursor[u] += 1;
        }
    }
    Ok(())
}

/// Saturates every residual arc with reduced cost in `[floor, below)`,
/// i.e. `floor ≤ c_p < below`, shifting the imbalance onto the endpoints
/// and enqueueing nodes that become active. Used with `(MIN, 0)` at phase
/// start and with `(MIN, −ε + 1)` after a set-relabel repair.
fn saturate(res: &mut Residual, ws: &mut SolverWorkspace, scale: i128, floor: i128, below: i128) {
    let n = res.node_count();
    for u in 0..n {
        for slot in res.active_slots(u) {
            let sl = res.slots[slot];
            if sl.cap <= 0 {
                continue;
            }
            let v = sl.to as usize;
            let cp = reduced(scale, sl.cost, ws.price[u], ws.price[v]);
            if cp < floor || cp >= below {
                continue;
            }
            res.push(sl.edge, sl.cap);
            ws.excess[u] -= sl.cap as i128;
            ws.excess[v] += sl.cap as i128;
            ws.pushed_units += sl.cap as u64;
            if ws.excess[v] > 0 && !ws.in_queue[v] {
                ws.in_queue[v] = true;
                ws.queue.push_back(v as u32);
            }
        }
    }
}

/// Standard relabel: drops `price[u]` to the largest value keeping some
/// residual arc admissible (`best arc's c_p = −ε` exactly); resets the
/// current-arc cursor.
fn relabel(res: &Residual, ws: &mut SolverWorkspace, scale: i128, eps: i128, u: usize) {
    let mut best: Option<i128> = None;
    for sl in &res.slots[res.active_slots(u)] {
        if sl.cap > 0 {
            let cand = ws.price[sl.to as usize] - scale * sl.cost as i128;
            best = Some(best.map_or(cand, |b: i128| b.max(cand)));
        }
    }
    ws.price[u] = match best {
        Some(b) => b - eps,
        // An active node always has an incoming pushed arc and hence a
        // residual out-arc; this branch only guards pathological graphs.
        None => ws.price[u] - eps,
    };
    ws.cursor[u] = 0;
}

/// True if `u` has at least one admissible residual out-arc, scanning from
/// its current-arc cursor (arcs before it are inadmissible by the cursor
/// invariant).
fn has_admissible(res: &Residual, ws: &SolverWorkspace, scale: i128, u: usize) -> bool {
    let range = res.active_slots(u);
    let start = range.start + (ws.cursor[u] as usize).min(range.len());
    for sl in &res.slots[start..range.end] {
        if sl.cap > 0 && reduced(scale, sl.cost, ws.price[u], ws.price[sl.to as usize]) < 0 {
            return true;
        }
    }
    false
}

/// Set-relabel (the cost-scaling analogue of max-flow global relabelling):
/// a backward 0/1-BFS from every deficit node counts the ε-steps separating
/// each node from a deficit — admissible arcs cost 0, others 1 — and prices
/// drop in bulk by that count times ε. Valid because the BFS inequality
/// `d[u] ≤ d[v] + len(u→v)` maps exactly onto the ε-optimality constraint.
/// Nodes the BFS cannot reach keep their price; arcs from re-priced nodes
/// into them can fall below −ε, so a saturation sweep over exactly those
/// arcs restores the invariant (their imbalance re-enters the FIFO queue).
fn set_relabel(res: &mut Residual, ws: &mut SolverWorkspace, scale: i128, eps: i128) {
    let n = res.node_count();
    ws.level.clear();
    ws.level.resize(n, u32::MAX);
    let mut dq: VecDeque<u32> = VecDeque::with_capacity(n);
    for v in 0..n {
        if ws.excess[v] < 0 {
            ws.level[v] = 0;
            dq.push_back(v as u32);
        }
    }
    while let Some(v) = dq.pop_front() {
        let v = v as usize;
        let dv = ws.level[v];
        // Incoming residual arcs (u → v) are the partners of v's slots —
        // the *full* slot range, because a dormant forward slot (cap 0)
        // still has a live partner.
        for sl in &res.slots[res.all_slots(v)] {
            let u = sl.to as usize;
            if res.cap_of(sl.edge ^ 1) <= 0 {
                continue;
            }
            // cost(u→v) = −cost(v→u)
            let cp = -(scale * sl.cost as i128) + ws.price[u] - ws.price[v];
            let nd = dv + u32::from(cp >= 0);
            if nd < ws.level[u] {
                ws.level[u] = nd;
                if cp < 0 {
                    dq.push_front(u as u32);
                } else {
                    dq.push_back(u as u32);
                }
            }
        }
    }
    for u in 0..n {
        let d = ws.level[u];
        if d != u32::MAX && d > 0 {
            ws.price[u] -= i128::from(d) * eps;
        }
        // Bulk price changes invalidate every current-arc cursor.
        ws.cursor[u] = 0;
    }
    // Repair: arcs into unreached nodes may now violate c_p ≥ −ε.
    saturate(res, ws, scale, i128::MIN, -eps);
}
