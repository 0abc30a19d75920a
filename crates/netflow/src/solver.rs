//! The backend selector: two algorithms named as data.
//!
//! Every min-cost-flow implementation in this crate — successive shortest
//! paths, cost scaling, the warm-start
//! [`Reoptimizer`](crate::Reoptimizer) and the
//! [`ResilientSolver`](crate::ResilientSolver) fallback chain — answers the
//! same question: route exactly `target` units from `s` to `t` at minimum
//! cost, honouring lower bounds. [`Backend`] names the two stateless
//! algorithms as data, so the choice can travel through configuration
//! (`LEMRA_BACKEND`, CLI flags) instead of through call sites.
//!
//! [`Backend::Auto`] picks by network shape: cost scaling when negative
//! costs sit on a cyclic graph (the one case the SSP family must refuse —
//! push-relabel ε-scaling handles negative cycles natively and, per
//! Király–Kovács, is the consistently strongest general-purpose choice),
//! plain SSP otherwise — the right default for the unit-capacity DAGs the
//! allocator builds, whose flow value R bounds the augmenting rounds.

use crate::budget::SolveBudget;
use crate::config::ParSolve;
use crate::cost_scaling::{min_cost_flow_cost_scaling, min_cost_flow_cost_scaling_with};
use crate::graph::{FlowNetwork, NodeId};
use crate::ssp::{min_cost_flow, min_cost_flow_with};
use crate::workspace::SolverWorkspace;
use crate::{FlowSolution, NetflowError};

/// A named min-cost-flow algorithm choice, selectable via configuration.
///
/// It travels through [`LemraConfig`](crate::LemraConfig) (the `LEMRA_BACKEND`
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
/// assert_eq!("cost_scaling".parse::<Backend>()?, Backend::CostScaling);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Successive shortest paths (the production default).
    #[default]
    Ssp,
    /// Goldberg–Tarjan cost scaling (push-relabel with ε-scaling).
    CostScaling,
    /// Pick by network shape at each solve; see [`Backend::select`].
    Auto,
}

impl Backend {
    /// Every concrete algorithm (excludes [`Backend::Auto`], which resolves
    /// to one of these).
    pub const ALL: [Backend; 2] = [Backend::Ssp, Backend::CostScaling];

    /// Stable lower-case name (`ssp`, `cost_scaling`, `auto`);
    /// [`str::parse`] accepts exactly these.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ssp => "ssp",
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
    /// | otherwise | [`Ssp`](Backend::Ssp) | the unit-capacity DAGs the allocator builds always land here; the blocking-flow rebuild routes many shortest paths per Dijkstra round |
    pub fn select(self, net: &FlowNetwork) -> Backend {
        if self != Backend::Auto {
            return self;
        }
        let negative = net.arcs().any(|(_, arc)| arc.cost < 0);
        if negative && !is_positive_capacity_dag(net) {
            Backend::CostScaling
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
            Backend::CostScaling => min_cost_flow_cost_scaling(net, s, t, target),
            Backend::Auto => unreachable!("select() resolves Auto"),
        }
    }

    /// Solves with this backend and an explicit workspace.
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
            "cost_scaling" | "cost-scaling" => Ok(Backend::CostScaling),
            "auto" => Ok(Backend::Auto),
            other => Err(NetflowError::InvalidArc {
                reason: format!("unknown backend `{other}` (expected ssp, cost_scaling or auto)"),
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
        }
    }

    #[test]
    fn auto_picks_ssp_for_unit_capacity_dags() {
        let (net, _, _) = diamond();
        assert_eq!(Backend::Auto.select(&net), Backend::Ssp);
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
        // The selected backend actually solves it: the unit runs
        // s -> a -> b -> t and a second lap of the cycle fills a -> b, so
        // a -> b carries 2 and b -> a carries 1.
        let auto = Backend::Auto.solve(&net, s, t, 1).unwrap();
        assert_eq!(auto.cost, -15);
        assert_eq!(auto.flows, vec![1, 2, 1, 1]);
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

        // Capacity alone never leaves SSP.
        let mut big = FlowNetwork::new();
        let (s, t) = (big.add_node(), big.add_node());
        big.add_arc(s, t, 1 << 40, 1).unwrap();
        assert_eq!(Backend::Auto.select(&big), Backend::Ssp);

        // Non-negative costs on a cycle -> still SSP: no negative cycle can
        // exist.
        let mut pos_cyc = FlowNetwork::new();
        let (a, b) = (pos_cyc.add_node(), pos_cyc.add_node());
        pos_cyc.add_arc(a, b, 1 << 20, 1).unwrap();
        pos_cyc.add_arc(b, a, 1 << 20, 0).unwrap();
        assert_eq!(Backend::Auto.select(&pos_cyc), Backend::Ssp);

        // Negative costs on a cycle -> cost scaling, at any capacity.
        let mut neg_cyc = FlowNetwork::new();
        let (a, b) = (neg_cyc.add_node(), neg_cyc.add_node());
        neg_cyc.add_arc(a, b, 1 << 20, -1).unwrap();
        neg_cyc.add_arc(b, a, 1 << 20, -1).unwrap();
        assert_eq!(Backend::Auto.select(&neg_cyc), Backend::CostScaling);

        // A cycle of zero-capacity arcs cannot carry flow -> SSP.
        let mut dead_cyc = FlowNetwork::new();
        let (a, b) = (dead_cyc.add_node(), dead_cyc.add_node());
        dead_cyc.add_arc(a, b, 1, -1).unwrap();
        dead_cyc.add_arc(b, a, 0, -1).unwrap();
        assert_eq!(Backend::Auto.select(&dead_cyc), Backend::Ssp);

        // Size alone never leaves SSP, and the no-op `ParSolve` argument
        // changes nothing.
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
            assert_eq!(
                Backend::CostScaling.select_with(&dag, mode),
                Backend::CostScaling
            );
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
            "  COST-SCALING ".parse::<Backend>().unwrap(),
            Backend::CostScaling
        );
        assert!("bogus".parse::<Backend>().is_err());
        // The removed backends' names are unknown, and the error lists the
        // accepted ones.
        for removed in ["simplex", "cycle", "scaling"] {
            let msg = removed.parse::<Backend>().unwrap_err().to_string();
            assert!(msg.contains("ssp, cost_scaling or auto"), "{msg}");
        }
    }
}
