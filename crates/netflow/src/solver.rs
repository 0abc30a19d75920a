//! The unified solver interface: one trait, five algorithms, one selector.
//!
//! Every min-cost-flow implementation in this crate — successive shortest
//! paths ([`Ssp`]), capacity scaling ([`CapacityScaling`]), cycle cancelling
//! ([`CycleCancelling`]), network simplex ([`NetworkSimplex`]), cost
//! scaling ([`CostScalingSolver`]) and the
//! warm-start [`Reoptimizer`] — answers the same question: route exactly
//! `target` units from `s` to `t` at minimum cost, honouring lower bounds.
//! [`McfSolver`] captures that contract so callers can hold *a* solver
//! instead of hard-coding one of the free functions, and [`Backend`] names
//! the algorithms as data so the choice can travel through configuration
//! (`LEMRA_BACKEND`, CLI flags) instead of through call sites.
//!
//! [`Backend::Auto`] picks by network shape: cost scaling when negative
//! costs sit on a cyclic graph (the one case the SSP family must refuse —
//! push-relabel ε-scaling handles negative cycles natively and, per
//! Király–Kovács, is the consistently strongest general-purpose choice),
//! capacity scaling when capacities are large enough that bulk
//! augmentations pay off, plain SSP otherwise — the right default for the
//! unit-capacity DAGs the allocator builds. Block-pivot network simplex
//! and minimum-mean cycle cancelling are never auto-selected but stay
//! within a small factor on every shape, serving as routine cross-check
//! backends rather than test-only curiosities.

use crate::budget::SolveBudget;
use crate::config::{LemraConfig, ParSolve};
use crate::cost_scaling::{min_cost_flow_cost_scaling, min_cost_flow_cost_scaling_with};
use crate::cycle_cancel::{min_cost_flow_cycle_canceling, min_cost_flow_cycle_canceling_with};
use crate::graph::{FlowNetwork, NodeId};
use crate::reopt::Reoptimizer;
use crate::scaling::{min_cost_flow_scaling, min_cost_flow_scaling_with};
use crate::simplex::{min_cost_flow_network_simplex, min_cost_flow_network_simplex_budgeted};
use crate::ssp::{min_cost_flow, min_cost_flow_with};
use crate::workspace::SolverWorkspace;
use crate::{FlowSolution, NetflowError};

/// A minimum-cost-flow algorithm.
///
/// The contract is exactly [`min_cost_flow`](crate::min_cost_flow)'s: an
/// exact flow of `target` units from `s` to `t`, arc lower bounds honoured,
/// identical error vocabulary. The workspace parameter lets sweeps reuse
/// scratch buffers; the network simplex (whose scratch is its basis
/// arrays, a different shape) and the [`Reoptimizer`] (which retains its
/// own workspace) ignore it.
///
/// `solve` takes `&mut self` so stateful solvers (the [`Reoptimizer`]) can
/// retain residual state between calls; the stateless algorithm structs are
/// zero-sized and free to construct per call.
pub trait McfSolver {
    /// Stable lower-case name of the algorithm (for reports and logs).
    fn name(&self) -> &'static str;

    /// Solves for a minimum-cost flow of exactly `target` units `s → t`.
    ///
    /// # Errors
    ///
    /// Same as [`min_cost_flow`](crate::min_cost_flow): infeasibility,
    /// negative cycles (SSP-family solvers only), invalid endpoints.
    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError>;

    /// [`Self::solve`] under a per-call [`SolveBudget`]: the budget is
    /// installed on the workspace for the duration of this call and the
    /// previous budget restored afterwards (even on error). Solvers that
    /// ignore the workspace override this to route the budget their own way.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`], plus [`NetflowError::BudgetExceeded`] when
    /// the budget runs out.
    fn solve_budgeted(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        let previous = ws.set_budget(budget);
        let result = self.solve(net, s, t, target, ws);
        ws.set_budget(previous);
        result
    }
}

/// Successive shortest paths with node potentials (the production solver).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ssp;

impl McfSolver for Ssp {
    fn name(&self) -> &'static str {
        "ssp"
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        min_cost_flow_with(net, s, t, target, ws)
    }
}

/// Capacity-scaling successive shortest paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacityScaling;

impl McfSolver for CapacityScaling {
    fn name(&self) -> &'static str {
        "scaling"
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        min_cost_flow_scaling_with(net, s, t, target, ws)
    }
}

/// Minimum-mean cycle cancelling (handles negative-cost cycles).
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleCancelling;

impl McfSolver for CycleCancelling {
    fn name(&self) -> &'static str {
        "cycle"
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        min_cost_flow_cycle_canceling_with(net, s, t, target, ws)
    }
}

/// The classical network simplex (handles negative-cost cycles).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkSimplex;

impl McfSolver for NetworkSimplex {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        _ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        min_cost_flow_network_simplex(net, s, t, target)
    }

    /// The simplex ignores the workspace, so the budget is passed straight
    /// to the pivot loop instead of travelling through `ws`.
    fn solve_budgeted(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        _ws: &mut SolverWorkspace,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        let block = LemraConfig::get().simplex_block.unwrap_or(0);
        min_cost_flow_network_simplex_budgeted(net, s, t, target, block, budget)
    }
}

/// Goldberg–Tarjan cost scaling (push-relabel with ε-scaling; handles
/// negative-cost cycles).
///
/// Named with the `Solver` suffix to keep the type distinct from
/// [`Backend::CostScaling`] in glob imports.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostScalingSolver;

impl McfSolver for CostScalingSolver {
    fn name(&self) -> &'static str {
        "cost_scaling"
    }

    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        min_cost_flow_cost_scaling_with(net, s, t, target, ws)
    }
}

impl McfSolver for Reoptimizer {
    fn name(&self) -> &'static str {
        "reopt"
    }

    /// Warm-start solve; the workspace parameter is ignored — the
    /// reoptimizer retains its own workspace whose potentials certify the
    /// retained residual graph.
    fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        _ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        Reoptimizer::solve(self, net, s, t, target)
    }

    /// The reoptimizer retains its own workspace; the budget is installed on
    /// the solver itself for this call and the previous one restored after.
    fn solve_budgeted(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        _ws: &mut SolverWorkspace,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        let previous = self.set_budget(budget);
        let result = Reoptimizer::solve(self, net, s, t, target);
        self.set_budget(previous);
        result
    }
}

/// Capacities at or above this make [`Backend::Auto`] prefer capacity
/// scaling: Δ-bulk augmentations beat per-distance blocking-flow phases
/// once single arcs carry thousands of units. On small-capacity networks
/// the two are a wash (PR 6 medians: 45.0 µs vs 43.6 µs at 512 vars), so
/// the threshold only needs to catch genuinely capacity-heavy shapes.
const AUTO_SCALING_CAPACITY: i64 = 1 << 12;

/// A named min-cost-flow algorithm choice, selectable via configuration.
///
/// `Backend` is the data-level counterpart of [`McfSolver`]: it travels
/// through [`LemraConfig`](crate::LemraConfig) (the `LEMRA_BACKEND`
/// environment variable, CLI flags) and is resolved to an algorithm at the
/// solve site. [`Backend::Auto`] defers the choice to the network's shape.
///
/// # Examples
///
/// ```
/// use lemra_netflow::{Backend, FlowNetwork};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, t) = (net.add_node(), net.add_node());
/// net.add_arc(s, t, 4, 3)?;
/// for backend in Backend::ALL {
///     assert_eq!(backend.solve(&net, s, t, 2)?.cost, 6);
/// }
/// assert_eq!("scaling".parse::<Backend>()?, Backend::Scaling);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Successive shortest paths (the production default).
    #[default]
    Ssp,
    /// Capacity-scaling SSP.
    Scaling,
    /// Negative-cycle cancelling.
    CycleCancel,
    /// Network simplex.
    Simplex,
    /// Goldberg–Tarjan cost scaling (push-relabel with ε-scaling).
    CostScaling,
    /// Pick by network shape at each solve; see [`Backend::select`].
    Auto,
}

impl Backend {
    /// Every concrete algorithm (excludes [`Backend::Auto`], which resolves
    /// to one of these).
    pub const ALL: [Backend; 5] = [
        Backend::Ssp,
        Backend::Scaling,
        Backend::CycleCancel,
        Backend::Simplex,
        Backend::CostScaling,
    ];

    /// Stable lower-case name (`ssp`, `scaling`, `cycle`, `simplex`,
    /// `cost_scaling`, `auto`); [`str::parse`] accepts exactly these.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ssp => "ssp",
            Backend::Scaling => "scaling",
            Backend::CycleCancel => "cycle",
            Backend::Simplex => "simplex",
            Backend::CostScaling => "cost_scaling",
            Backend::Auto => "auto",
        }
    }

    /// Resolves [`Backend::Auto`] against `net`'s shape; concrete variants
    /// return themselves.
    ///
    /// The policy, in order:
    ///
    /// | shape | choice | why |
    /// |---|---|---|
    /// | negative costs on a cyclic positive-capacity graph | [`CostScaling`](Backend::CostScaling) | the SSP family must refuse negative cycles (cyclicity is the cheap sound over-approximation); push-relabel ε-scaling saturates them natively and — per Király–Kovács — is the consistently strongest general-purpose algorithm on exactly these dense mixed-sign nets |
    /// | any capacity ≥ 2¹² | [`Scaling`](Backend::Scaling) | Δ-phase bulk augmentations beat one-path-per-unit SSP |
    /// | otherwise | [`Ssp`](Backend::Ssp) | the unit-capacity DAGs the allocator builds always land here; the blocking-flow rebuild routes many shortest paths per Dijkstra round, and from 100 000 arcs on each round settles a pruned working set |
    ///
    /// [`Simplex`](Backend::Simplex) and
    /// [`CycleCancel`](Backend::CycleCancel) are never auto-selected: they
    /// win no shape outright but stay within a small factor at every size
    /// the benches measure, so `LEMRA_BACKEND=simplex` (or `cycle`) is a
    /// practical whole-sweep cross-check.
    pub fn select(self, net: &FlowNetwork) -> Backend {
        if self != Backend::Auto {
            return self;
        }
        let mut negative = false;
        let mut max_capacity = 0i64;
        for (_, arc) in net.arcs() {
            negative |= arc.cost < 0;
            max_capacity = max_capacity.max(arc.capacity);
        }
        if negative && !is_positive_capacity_dag(net) {
            Backend::CostScaling
        } else if max_capacity >= AUTO_SCALING_CAPACITY {
            Backend::Scaling
        } else {
            Backend::Ssp
        }
    }

    /// [`Backend::select`]; the [`ParSolve`] argument has no effect since
    /// the region-parallel backend was removed. Kept so existing callers
    /// compile; to be removed together with [`ParSolve`].
    pub fn select_with(self, net: &FlowNetwork, _par_solve: ParSolve) -> Backend {
        self.select(net)
    }

    /// The algorithm as a boxed [`McfSolver`] (resolving [`Backend::Auto`]
    /// against `net` first) — for callers that store the solver.
    pub fn solver(self, net: &FlowNetwork) -> Box<dyn McfSolver + Send> {
        match self.select(net) {
            Backend::Ssp => Box::new(Ssp),
            Backend::Scaling => Box::new(CapacityScaling),
            Backend::CycleCancel => Box::new(CycleCancelling),
            Backend::Simplex => Box::new(NetworkSimplex),
            Backend::CostScaling => Box::new(CostScalingSolver),
            Backend::Auto => unreachable!("select() resolves Auto"),
        }
    }

    /// Solves with this backend, reusing the calling thread's shared
    /// workspace (like [`min_cost_flow`](crate::min_cost_flow)).
    ///
    /// # Errors
    ///
    /// Same as [`min_cost_flow`](crate::min_cost_flow).
    pub fn solve(
        self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        match self.select(net) {
            Backend::Ssp => min_cost_flow(net, s, t, target),
            Backend::Scaling => min_cost_flow_scaling(net, s, t, target),
            Backend::CycleCancel => min_cost_flow_cycle_canceling(net, s, t, target),
            Backend::Simplex => min_cost_flow_network_simplex(net, s, t, target),
            Backend::CostScaling => min_cost_flow_cost_scaling(net, s, t, target),
            Backend::Auto => unreachable!("select() resolves Auto"),
        }
    }

    /// Solves with this backend and an explicit workspace (ignored by the
    /// simplex algorithm, whose scratch is its basis arrays).
    ///
    /// # Errors
    ///
    /// Same as [`min_cost_flow`](crate::min_cost_flow).
    pub fn solve_with(
        self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        match self.select(net) {
            Backend::Ssp => min_cost_flow_with(net, s, t, target, ws),
            Backend::Scaling => min_cost_flow_scaling_with(net, s, t, target, ws),
            Backend::CycleCancel => min_cost_flow_cycle_canceling_with(net, s, t, target, ws),
            // Route the workspace-carried budget into the pivot loop so a
            // budget installed with `ws.set_budget` binds every backend.
            Backend::Simplex => {
                let block = LemraConfig::get().simplex_block.unwrap_or(0);
                min_cost_flow_network_simplex_budgeted(net, s, t, target, block, ws.budget)
            }
            Backend::CostScaling => min_cost_flow_cost_scaling_with(net, s, t, target, ws),
            Backend::Auto => unreachable!("select() resolves Auto"),
        }
    }

    /// Solves with this backend under a per-call [`SolveBudget`], reusing
    /// the calling thread's shared workspace. The budget is scoped to this
    /// call: the workspace's previous budget is restored afterwards.
    ///
    /// # Errors
    ///
    /// Same as [`Backend::solve`], plus [`NetflowError::BudgetExceeded`]
    /// when the budget runs out.
    pub fn solve_with_budget(
        self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        budget: SolveBudget,
    ) -> Result<FlowSolution, NetflowError> {
        crate::workspace::with_thread_workspace(|ws| {
            let previous = ws.set_budget(budget);
            let result = self.solve_with(net, s, t, target, ws);
            ws.set_budget(previous);
            result
        })
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = NetflowError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ssp" => Ok(Backend::Ssp),
            "scaling" => Ok(Backend::Scaling),
            "cycle" | "cycle-cancel" | "cycle_cancel" => Ok(Backend::CycleCancel),
            "simplex" => Ok(Backend::Simplex),
            "cost_scaling" | "cost-scaling" => Ok(Backend::CostScaling),
            "auto" => Ok(Backend::Auto),
            other => Err(NetflowError::InvalidArc {
                reason: format!(
                    "unknown backend `{other}` (expected ssp, scaling, cycle, simplex, \
                     cost_scaling or auto)"
                ),
            }),
        }
    }
}

/// True if the subgraph of positive-capacity arcs is acyclic (Kahn's
/// algorithm). Residual arcs don't matter here: before any flow moves, only
/// forward arcs have capacity, and a negative cycle needs capacity on every
/// arc.
fn is_positive_capacity_dag(net: &FlowNetwork) -> bool {
    let n = net.node_count();
    let mut indegree = vec![0u32; n];
    for (_, arc) in net.arcs() {
        if arc.capacity > 0 {
            indegree[arc.to.index()] += 1;
        }
    }
    // Bucket arcs by tail once so the peel is O(V + E).
    let mut head: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (_, arc) in net.arcs() {
        if arc.capacity > 0 {
            head[arc.from.index()].push(arc.to.index() as u32);
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = queue.pop() {
        seen += 1;
        for &v in &head[u] {
            indegree[v as usize] -= 1;
            if indegree[v as usize] == 0 {
                queue.push(v as usize);
            }
        }
    }
    seen == n
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn every_backend_agrees_on_the_diamond() {
        let (net, s, t) = diamond();
        let mut ws = SolverWorkspace::new();
        for backend in Backend::ALL {
            assert_eq!(backend.solve(&net, s, t, 2).unwrap().cost, 8, "{backend}");
            assert_eq!(
                backend.solve_with(&net, s, t, 2, &mut ws).unwrap().cost,
                8,
                "{backend} (with workspace)"
            );
            let mut solver = backend.solver(&net);
            assert_eq!(solver.solve(&net, s, t, 2, &mut ws).unwrap().cost, 8);
            assert_eq!(solver.name(), backend.name());
        }
    }

    #[test]
    fn reoptimizer_is_a_solver() {
        let (net, s, t) = diamond();
        let mut ws = SolverWorkspace::new();
        let mut reopt = Reoptimizer::new();
        let sol = McfSolver::solve(&mut reopt, &net, s, t, 1, &mut ws).unwrap();
        assert_eq!(sol.cost, 2);
        McfSolver::solve(&mut reopt, &net, s, t, 2, &mut ws).unwrap();
        assert_eq!(reopt.warm_solves(), 1);
        assert_eq!(McfSolver::name(&reopt), "reopt");
    }

    #[test]
    fn auto_picks_ssp_for_unit_capacity_dags() {
        let (net, _, _) = diamond();
        assert_eq!(Backend::Auto.select(&net), Backend::Ssp);
    }

    #[test]
    fn auto_picks_scaling_for_large_capacities() {
        let mut net = FlowNetwork::new();
        let (s, t) = (net.add_node(), net.add_node());
        net.add_arc(s, t, 1 << 20, 1).unwrap();
        assert_eq!(Backend::Auto.select(&net), Backend::Scaling);
    }

    #[test]
    fn auto_picks_cost_scaling_for_negative_cyclic_networks() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, b, 2, -5).unwrap();
        net.add_arc(b, a, 2, -5).unwrap(); // negative cycle a <-> b
        net.add_arc(b, t, 1, 0).unwrap();
        assert_eq!(Backend::Auto.select(&net), Backend::CostScaling);
        // The selected backend actually solves it, and agrees with the
        // previous champion for the shape.
        let auto = Backend::Auto.solve(&net, s, t, 1).unwrap();
        let cycle = Backend::CycleCancel.solve(&net, s, t, 1).unwrap();
        assert_eq!(auto.cost, cycle.cost);
    }

    /// Pins the whole [`Backend::Auto`] selection table so a re-tune is a
    /// conscious edit here, not a silent behaviour change.
    #[test]
    fn auto_selection_table_is_pinned() {
        // Unit-capacity DAG (the allocator shape) -> Ssp.
        let (dag, _, _) = diamond();
        assert_eq!(Backend::Auto.select(&dag), Backend::Ssp);

        // Negative cost on a DAG is still fine for SSP.
        let mut neg_dag = FlowNetwork::new();
        let (s, a, t) = (neg_dag.add_node(), neg_dag.add_node(), neg_dag.add_node());
        neg_dag.add_arc(s, a, 1, -2).unwrap();
        neg_dag.add_arc(a, t, 1, -3).unwrap();
        assert_eq!(Backend::Auto.select(&neg_dag), Backend::Ssp);

        // Capacity exactly at the threshold flips to capacity scaling.
        let mut big = FlowNetwork::new();
        let (s, t) = (big.add_node(), big.add_node());
        big.add_arc(s, t, AUTO_SCALING_CAPACITY, 1).unwrap();
        assert_eq!(Backend::Auto.select(&big), Backend::Scaling);
        let mut small = FlowNetwork::new();
        let (s, t) = (small.add_node(), small.add_node());
        small.add_arc(s, t, AUTO_SCALING_CAPACITY - 1, 1).unwrap();
        assert_eq!(Backend::Auto.select(&small), Backend::Ssp);

        // Negative costs on a cycle -> cost scaling, and it outranks the
        // capacity rule.
        let mut neg_cyc = FlowNetwork::new();
        let (a, b) = (neg_cyc.add_node(), neg_cyc.add_node());
        neg_cyc.add_arc(a, b, AUTO_SCALING_CAPACITY, -1).unwrap();
        neg_cyc.add_arc(b, a, AUTO_SCALING_CAPACITY, -1).unwrap();
        assert_eq!(Backend::Auto.select(&neg_cyc), Backend::CostScaling);

        // Size alone never leaves SSP: large networks prune inside it, and
        // the no-op `ParSolve` argument changes nothing.
        let mut huge = FlowNetwork::new();
        let nodes: Vec<_> = (0..=25_000).map(|_| huge.add_node()).collect();
        for w in nodes.windows(2) {
            for _ in 0..4 {
                huge.add_arc(w[0], w[1], 1, 1).unwrap();
            }
        }
        assert!(huge.arc_count() >= 100_000);
        for mode in [ParSolve::Auto, ParSolve::Force, ParSolve::Off] {
            assert_eq!(Backend::Auto.select_with(&huge, mode), Backend::Ssp);
            assert_eq!(Backend::Simplex.select_with(&dag, mode), Backend::Simplex);
        }
    }

    #[test]
    fn auto_stays_ssp_when_negative_costs_sit_on_a_dag() {
        let mut net = FlowNetwork::new();
        let (s, a, t) = (net.add_node(), net.add_node(), net.add_node());
        net.add_arc(s, a, 1, -2).unwrap();
        net.add_arc(a, t, 1, -3).unwrap();
        assert_eq!(Backend::Auto.select(&net), Backend::Ssp);
    }

    #[test]
    fn concrete_backends_select_themselves() {
        let (net, _, _) = diamond();
        for backend in Backend::ALL {
            assert_eq!(backend.select(&net), backend);
        }
    }

    #[test]
    fn backend_parses_and_displays() {
        for backend in Backend::ALL.into_iter().chain([Backend::Auto]) {
            assert_eq!(backend.name().parse::<Backend>().unwrap(), backend);
            assert_eq!(backend.to_string(), backend.name());
        }
        assert_eq!(
            "  CYCLE-CANCEL ".parse::<Backend>().unwrap(),
            Backend::CycleCancel
        );
        assert!("bogus".parse::<Backend>().is_err());
    }
}
