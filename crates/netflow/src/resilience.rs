//! Graceful degradation around the solver backends.
//!
//! A [`ResilientSolver`] wraps a fallback chain of [`Backend`]s (default:
//! the chosen backend, then [`Backend::Ssp`] as the verified-slow anchor)
//! and tries them in order until one returns a solution. Three failure
//! classes trigger the next link in the chain:
//!
//! * **typed recoverable errors** — [`NetflowError::BudgetExceeded`],
//!   [`NetflowError::Overflow`], [`NetflowError::NegativeCycle`] and
//!   [`NetflowError::InvalidSolution`]: another algorithm may genuinely
//!   succeed (a different cost profile, no budget, an `i128`-capable path);
//! * **panics** — contained at the solve boundary with
//!   [`std::panic::catch_unwind`] and converted into
//!   [`NetflowError::SolverPanicked`], so one bad solve degrades that solve,
//!   not the process;
//! * **injected faults** — with the `fault-inject` cargo feature, a
//!   [`FaultPlan`](crate::FaultPlan) (or `LEMRA_FAULT`) deterministically
//!   simulates the above at chosen solve indices, which is how the chain is
//!   tested end-to-end.
//!
//! Errors that describe the *instance* rather than the solve —
//! [`NetflowError::Infeasible`], [`NetflowError::InvalidArc`],
//! [`NetflowError::CyclicFlow`] — are terminal: every backend would agree,
//! so they return immediately and record no incident.
//!
//! Every absorbed failure is logged as a [`SolverIncident`]; sweeps surface
//! the count through their stage counters and `--timings` output.

use crate::budget::SolveBudget;
use crate::graph::{FlowNetwork, NodeId};
use crate::reopt::Reoptimizer;
use crate::solver::Backend;
use crate::workspace::{with_thread_workspace, SolverWorkspace};
use crate::{FlowSolution, NetflowError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One absorbed solver failure: which solve, which backend, what went
/// wrong, and which backend (if any) recovered the solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverIncident {
    /// 0-based index of the solve (counted per [`ResilientSolver`]).
    pub solve_index: u64,
    /// Name of the backend whose attempt failed.
    pub backend: String,
    /// Display form of the error the attempt produced.
    pub error: String,
    /// Name of the backend that subsequently completed the solve, or
    /// `None` if the whole chain failed.
    pub recovered_with: Option<String>,
}

impl std::fmt::Display for SolverIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solve #{}: {} failed ({})",
            self.solve_index, self.backend, self.error
        )?;
        match &self.recovered_with {
            Some(b) => write!(f, ", recovered by {b}"),
            None => write!(f, ", no fallback succeeded"),
        }
    }
}

/// A min-cost-flow fallback chain: tries each backend in order, contains
/// panics, and logs every absorbed failure as a [`SolverIncident`].
///
/// # Examples
///
/// ```
/// use lemra_netflow::{Backend, FlowNetwork, ResilientSolver, SolveBudget};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, t) = (net.add_node(), net.add_node());
/// net.add_arc(s, t, 4, 3)?;
/// // Chain: cost scaling first, SSP anchor second. A one-round budget
/// // starves cost scaling before its first refine phase, while SSP routes
/// // both units in its first round, so the anchor completes the solve and
/// // one incident is logged.
/// let mut solver = ResilientSolver::new(Backend::CostScaling);
/// solver.set_budget(SolveBudget::default().with_max_rounds(1));
/// let sol = solver.solve(&net, s, t, 2)?;
/// assert_eq!(sol.cost, 6);
/// assert_eq!(solver.incident_count(), 1);
/// assert_eq!(solver.incidents()[0].recovered_with.as_deref(), Some("ssp"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ResilientSolver {
    chain: Vec<Backend>,
    budget: SolveBudget,
    incidents: Vec<SolverIncident>,
    solve_index: u64,
}

impl Default for ResilientSolver {
    fn default() -> Self {
        Self::new(Backend::default())
    }
}

impl ResilientSolver {
    /// A resilient solver whose chain is `primary` followed by the
    /// [`Backend::Ssp`] anchor. The anchor is appended even when `primary`
    /// *is* plain SSP: the second attempt runs on a fresh workspace, which
    /// is what recovers a contained panic — a request served by the
    /// allocation server must fall through to an identical re-solve, not
    /// surface the panic to the client.
    pub fn new(primary: Backend) -> Self {
        Self::with_chain(vec![primary, Backend::Ssp])
    }

    /// A resilient solver trying exactly `chain`, in order. An empty chain
    /// is replaced by `[Backend::Ssp]`.
    pub fn with_chain(chain: Vec<Backend>) -> Self {
        let chain = if chain.is_empty() {
            vec![Backend::Ssp]
        } else {
            chain
        };
        Self {
            chain,
            budget: SolveBudget::default(),
            incidents: Vec::new(),
            solve_index: 0,
        }
    }

    /// No effect: the hints were cut positions for the region-parallel
    /// solver backend, which has been removed. Kept so existing callers
    /// compile; to be removed.
    pub fn set_region_hints(&mut self, _hints: Option<Vec<u32>>) {}

    /// Installs a [`SolveBudget`] applied to **each** attempt (every link
    /// of the chain gets the full budget), returning the previous one.
    pub fn set_budget(&mut self, budget: SolveBudget) -> SolveBudget {
        std::mem::replace(&mut self.budget, budget)
    }

    /// The configured fallback chain, in attempt order.
    pub fn chain(&self) -> &[Backend] {
        &self.chain
    }

    /// Every incident absorbed so far, oldest first.
    pub fn incidents(&self) -> &[SolverIncident] {
        &self.incidents
    }

    /// Number of incidents absorbed so far.
    pub fn incident_count(&self) -> u64 {
        self.incidents.len() as u64
    }

    /// Number of solves attempted (0-based index of the *next* solve).
    pub fn solves(&self) -> u64 {
        self.solve_index
    }

    /// Solves via the fallback chain, reusing the calling thread's shared
    /// workspace (so effort counters appear in
    /// [`thread_solver_stats`](crate::thread_solver_stats)).
    ///
    /// # Errors
    ///
    /// The first terminal error encountered, or — when every link of the
    /// chain fails recoverably — the last attempt's error.
    pub fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        with_thread_workspace(|ws| self.solve_with(net, s, t, target, ws))
    }

    /// [`Self::solve`] with an explicit workspace.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_with(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        self.run_chain(None, net, s, t, target, ws)
    }

    /// Runs the warm-start `primary` first and falls back to this solver's
    /// backend chain if it fails recoverably.
    ///
    /// After a [`NetflowError::SolverPanicked`] incident the caller must
    /// assume `primary`'s internal state is mid-mutation and
    /// [`reset`](Reoptimizer::reset) it before its next use; the fallback
    /// result itself is produced by a stateless backend and is safe.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_with_fallback(
        &mut self,
        primary: &mut Reoptimizer,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        with_thread_workspace(|ws| self.run_chain(Some(primary), net, s, t, target, ws))
    }

    /// The attempt loop: `primary` (if any) then each chain backend, under
    /// per-attempt panic containment, budget installation and (with the
    /// `fault-inject` feature) fault injection.
    fn run_chain(
        &mut self,
        mut primary: Option<&mut Reoptimizer>,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
        ws: &mut SolverWorkspace,
    ) -> Result<FlowSolution, NetflowError> {
        #[cfg(feature = "fault-inject")]
        crate::fault::FaultPlan::ensure_env_plan()?;

        let solve_index = self.solve_index;
        self.solve_index += 1;
        let budget = self.budget;
        let incidents_before = self.incidents.len();

        let chain_backends = self.chain.clone();
        let attempts = usize::from(primary.is_some()) + chain_backends.len();

        let mut last_err: Option<NetflowError> = None;
        for attempt in 0..attempts {
            let (name, outcome) = match (&mut primary, attempt) {
                (Some(reopt), 0) => {
                    // The reoptimizer retains its own workspace, so the
                    // budget goes on the solver itself for this attempt.
                    let outcome = Self::attempt(solve_index, attempt, "reopt", ws, |_| {
                        let previous = reopt.set_budget(budget);
                        let result = reopt.solve(net, s, t, target);
                        reopt.set_budget(previous);
                        result
                    });
                    ("reopt".to_owned(), outcome)
                }
                _ => {
                    let backend = chain_backends[attempt - usize::from(primary.is_some())];
                    let name = backend.select(net).name();
                    let outcome = Self::attempt(solve_index, attempt, name, ws, |ws| {
                        let previous = ws.set_budget(budget);
                        let result = backend.solve_with(net, s, t, target, ws);
                        ws.set_budget(previous);
                        result
                    });
                    (name.to_owned(), outcome)
                }
            };
            match outcome {
                Ok(sol) => {
                    // Mark this solve's earlier incidents as recovered.
                    for incident in &mut self.incidents[incidents_before..] {
                        incident.recovered_with = Some(name.clone());
                    }
                    return Ok(sol);
                }
                Err(e) if is_terminal(&e) => return Err(e),
                Err(e) => {
                    self.incidents.push(SolverIncident {
                        solve_index,
                        backend: name,
                        error: e.to_string(),
                        recovered_with: None,
                    });
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("chain is never empty"))
    }

    /// One contained attempt: fault injection (feature-gated), then the
    /// solve under `catch_unwind`, with panics converted to
    /// [`NetflowError::SolverPanicked`].
    fn attempt(
        solve_index: u64,
        attempt: usize,
        name: &'static str,
        ws: &mut SolverWorkspace,
        solve: impl FnOnce(&mut SolverWorkspace) -> Result<FlowSolution, NetflowError>,
    ) -> Result<FlowSolution, NetflowError> {
        #[cfg(not(feature = "fault-inject"))]
        let _ = (solve_index, attempt);
        let contained = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            if let Some(kind) = crate::fault::maybe_inject(solve_index, attempt, name) {
                match kind {
                    crate::fault::FaultKind::Panic => {
                        panic!("injected fault: panic in {name} at solve {solve_index}")
                    }
                    crate::fault::FaultKind::Budget => {
                        return Err(NetflowError::BudgetExceeded {
                            backend: name,
                            phase: "injected",
                            progress: 0,
                        });
                    }
                    crate::fault::FaultKind::Overflow => {
                        return Err(NetflowError::Overflow {
                            reason: format!("injected fault at solve {solve_index}"),
                        });
                    }
                    // Connection faults target the server's response path;
                    // `maybe_inject` never returns them.
                    crate::fault::FaultKind::Conn => {}
                }
            }
            solve(ws)
        }));
        match contained {
            Ok(result) => result,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
                    (*s).to_owned()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_owned()
                };
                Err(NetflowError::SolverPanicked {
                    backend: name,
                    message,
                })
            }
        }
    }
}

/// True for errors that describe the problem instance rather than one
/// backend's solve — no fallback can change the verdict.
fn is_terminal(e: &NetflowError) -> bool {
    matches!(
        e,
        NetflowError::InvalidArc { .. }
            | NetflowError::Infeasible { .. }
            | NetflowError::CyclicFlow { .. }
    )
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
    fn clean_solves_record_no_incidents() {
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::new(Backend::Ssp);
        assert_eq!(solver.solve(&net, s, t, 2).unwrap().cost, 8);
        assert_eq!(solver.incident_count(), 0);
        assert_eq!(solver.solves(), 1);
        assert_eq!(solver.chain(), &[Backend::Ssp, Backend::Ssp]);
    }

    #[test]
    fn default_chain_appends_ssp_anchor() {
        let solver = ResilientSolver::new(Backend::CostScaling);
        assert_eq!(solver.chain(), &[Backend::CostScaling, Backend::Ssp]);
        // Even an SSP primary gets the anchor: the fresh-workspace retry is
        // what recovers a contained panic.
        let solver = ResilientSolver::new(Backend::Ssp);
        assert_eq!(solver.chain(), &[Backend::Ssp, Backend::Ssp]);
        let solver = ResilientSolver::with_chain(Vec::new());
        assert_eq!(solver.chain(), &[Backend::Ssp]);
    }

    #[test]
    fn terminal_errors_skip_the_chain() {
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::CostScaling]);
        // Infeasible: every backend agrees; no incident, immediate error.
        let err = solver.solve(&net, s, t, 99).unwrap_err();
        assert!(matches!(err, NetflowError::Infeasible { .. }));
        assert_eq!(solver.incident_count(), 0);
        // Invalid endpoints likewise.
        let err = solver.solve(&net, s, s, 1).unwrap_err();
        assert!(matches!(err, NetflowError::InvalidArc { .. }));
        assert_eq!(solver.incident_count(), 0);
    }

    #[test]
    fn exhausted_chain_returns_last_error_and_logs_all_attempts() {
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::CostScaling]);
        // A zero-round budget starves both links before any flow moves.
        solver.set_budget(SolveBudget::default().with_max_rounds(0));
        let err = solver.solve(&net, s, t, 2).unwrap_err();
        assert!(matches!(err, NetflowError::BudgetExceeded { .. }));
        assert_eq!(solver.incident_count(), 2);
        assert!(solver
            .incidents()
            .iter()
            .all(|i| i.recovered_with.is_none()));
        // Lifting the budget recovers on the next solve.
        solver.set_budget(SolveBudget::default());
        assert_eq!(solver.solve(&net, s, t, 2).unwrap().cost, 8);
        assert_eq!(solver.incident_count(), 2);
    }

    #[test]
    fn budget_starved_primary_recovers_via_anchor() {
        // Budget applies per attempt; one round starves cost scaling (its
        // feasibility max-flow is round 0, the first refine phase round 1)
        // while the SSP anchor routes the single unit in its first round
        // under the same budget object.
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::new(Backend::CostScaling);
        solver.set_budget(SolveBudget::default().with_max_rounds(1));
        let sol = solver.solve(&net, s, t, 1).unwrap();
        assert_eq!(sol.cost, 2);
        assert_eq!(solver.incident_count(), 1);
        let incident = &solver.incidents()[0];
        assert_eq!(incident.backend, "cost_scaling");
        assert_eq!(incident.recovered_with.as_deref(), Some("ssp"));
        assert!(incident.error.contains("refine"), "{}", incident.error);
    }

    #[test]
    fn deadline_binds_every_link() {
        let (net, s, t) = diamond();
        let mut solver = ResilientSolver::new(Backend::CostScaling);
        // A deadline already past starves both links.
        let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
        solver.set_budget(SolveBudget::default().with_deadline(past));
        let err = solver.solve(&net, s, t, 2).unwrap_err();
        assert!(matches!(
            err,
            NetflowError::BudgetExceeded { backend: "ssp", .. }
        ));
        let names: Vec<_> = solver.incidents().iter().map(|i| &i.backend).collect();
        assert_eq!(names, ["cost_scaling", "ssp"]);
        // A generous deadline changes nothing: the primary completes.
        solver
            .set_budget(SolveBudget::default().with_timeout(std::time::Duration::from_secs(3600)));
        assert_eq!(solver.solve(&net, s, t, 2).unwrap().cost, 8);
        assert_eq!(solver.incident_count(), 2);
    }

    #[test]
    fn negative_cycle_recovers_via_cost_scaling_link() {
        // SSP refuses negative cycles; cost scaling handles them natively,
        // so a chain ending in it recovers and logs exactly one incident.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 0).unwrap();
        net.add_arc(a, b, 1, -5).unwrap();
        net.add_arc(b, a, 1, -5).unwrap();
        net.add_arc(a, t, 1, 0).unwrap();
        let mut solver = ResilientSolver::with_chain(vec![Backend::Ssp, Backend::CostScaling]);
        let sol = solver.solve(&net, s, t, 1).unwrap();
        assert_eq!(sol.value, 1);
        assert_eq!(solver.incident_count(), 1);
        let incident = &solver.incidents()[0];
        assert_eq!(incident.backend, "ssp");
        assert_eq!(incident.recovered_with.as_deref(), Some("cost_scaling"));
        assert!(incident.error.contains("negative-cost cycle"));
        assert_eq!(incident.solve_index, 0);
    }

    #[test]
    fn stateful_primary_falls_back_and_can_reset() {
        let (net, s, t) = diamond();
        let mut reopt = crate::Reoptimizer::new();
        let mut solver = ResilientSolver::new(Backend::Ssp);
        let sol = solver
            .solve_with_fallback(&mut reopt, &net, s, t, 1)
            .unwrap();
        assert_eq!(sol.cost, 2);
        assert_eq!(solver.incident_count(), 0);
        assert_eq!(reopt.cold_solves(), 1);
        // Raising the target forces the warm path to push one more unit,
        // which a zero-round budget forbids; both SSP chain links run under
        // the same per-attempt budget and fail too. Clearing the budget
        // (and resetting the reoptimizer) recovers.
        solver.set_budget(SolveBudget::default().with_max_rounds(0));
        let err = solver
            .solve_with_fallback(&mut reopt, &net, s, t, 2)
            .unwrap_err();
        assert!(matches!(err, NetflowError::BudgetExceeded { .. }));
        assert_eq!(solver.incident_count(), 3); // reopt + ssp + ssp anchor
        reopt.reset();
        solver.set_budget(SolveBudget::default());
        let sol = solver
            .solve_with_fallback(&mut reopt, &net, s, t, 2)
            .unwrap();
        assert_eq!(sol.cost, 8);
        assert_eq!(reopt.cold_solves(), 2);
    }

    #[test]
    fn incidents_display_readably() {
        let incident = SolverIncident {
            solve_index: 7,
            backend: "cost_scaling".to_owned(),
            error: "solve budget exceeded".to_owned(),
            recovered_with: Some("ssp".to_owned()),
        };
        let text = incident.to_string();
        assert!(text.contains("solve #7"));
        assert!(text.contains("cost_scaling"));
        assert!(text.contains("recovered by ssp"));
    }
}
