//! Cooperative solve budgets and deadlines.
//!
//! A [`SolveBudget`] bounds how much work one min-cost-flow solve may do
//! before it gives up with a structured
//! [`NetflowError::BudgetExceeded`](crate::NetflowError::BudgetExceeded)
//! instead of running away on an adversarial instance. The budget travels
//! inside the [`SolverWorkspace`](crate::SolverWorkspace) (set it with
//! [`SolverWorkspace::set_budget`](crate::SolverWorkspace::set_budget) or
//! let [`Backend::solve_with_budget`](crate::Backend::solve_with_budget)
//! install it for one call) and is checked **cooperatively at phase
//! boundaries** — once per shortest-path round, per cost-scaling refine
//! phase, per warm-repair drain round — so the default unlimited budget
//! costs two `Option` reads per round and zero clock reads on the solver hot
//! path.
//!
//! The two limits are independent and either may be set:
//!
//! * `max_rounds` — shortest-path rounds for SSP, refine phases for cost
//!   scaling and drain rounds for the reoptimizer.
//! * `deadline` — a wall-clock [`Instant`]; checked only when set, so the
//!   default never touches the clock.

use crate::NetflowError;
use std::time::Instant;

/// Cooperative work limits for one min-cost-flow solve.
///
/// The default is unlimited on every axis. Budgets are plain data
/// (`Copy`): install one per solve via
/// [`Backend::solve_with_budget`](crate::Backend::solve_with_budget), or
/// persistently via
/// [`SolverWorkspace::set_budget`](crate::SolverWorkspace::set_budget) /
/// [`ResilientSolver::set_budget`](crate::ResilientSolver::set_budget).
///
/// # Examples
///
/// ```
/// use lemra_netflow::{Backend, FlowNetwork, NetflowError, SolveBudget};
///
/// # fn main() -> Result<(), lemra_netflow::NetflowError> {
/// let mut net = FlowNetwork::new();
/// let (s, t) = (net.add_node(), net.add_node());
/// net.add_arc(s, t, 4, 3)?;
/// // An unlimited budget changes nothing.
/// let sol = Backend::Ssp.solve_with_budget(&net, s, t, 2, SolveBudget::default())?;
/// assert_eq!(sol.cost, 6);
/// // A zero-round budget trips before the first augmentation.
/// let err = Backend::Ssp
///     .solve_with_budget(&net, s, t, 2, SolveBudget::default().with_max_rounds(0))
///     .unwrap_err();
/// assert!(matches!(err, NetflowError::BudgetExceeded { backend: "ssp", .. }));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum shortest-path / refine / drain rounds; `None` is unlimited.
    pub max_rounds: Option<u64>,
    /// Wall-clock deadline; `None` never reads the clock.
    pub deadline: Option<Instant>,
}

impl SolveBudget {
    /// The unlimited budget (identical to `SolveBudget::default()`).
    pub const UNLIMITED: SolveBudget = SolveBudget {
        max_rounds: None,
        deadline: None,
    };

    /// This budget with `max_rounds` set.
    pub fn with_max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// This budget with the wall-clock deadline set.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This budget with the deadline set `timeout` from now — how the
    /// allocation server turns a per-request timeout into a solve budget.
    pub fn with_timeout(self, timeout: std::time::Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// True when no limit is set — solvers use this to skip accounting.
    pub fn is_unlimited(&self) -> bool {
        self.max_rounds.is_none() && self.deadline.is_none()
    }

    /// Checks the round budget and the deadline after `progress` completed
    /// rounds of `phase` in `backend`.
    ///
    /// # Errors
    ///
    /// [`NetflowError::BudgetExceeded`] naming the backend, phase and
    /// progress when a limit has run out.
    #[inline]
    pub fn check_rounds(
        &self,
        backend: &'static str,
        phase: &'static str,
        progress: u64,
    ) -> Result<(), NetflowError> {
        if let Some(max) = self.max_rounds {
            if progress >= max {
                return Err(NetflowError::BudgetExceeded {
                    backend,
                    phase,
                    progress,
                });
            }
        }
        self.check_deadline(backend, phase, progress)
    }

    /// Checks only the deadline (for phases that amortise the clock read
    /// over many cheap steps). Reads the clock only when a deadline is set.
    ///
    /// # Errors
    ///
    /// [`NetflowError::BudgetExceeded`] when the deadline has passed.
    #[inline]
    pub fn check_deadline(
        &self,
        backend: &'static str,
        phase: &'static str,
        progress: u64,
    ) -> Result<(), NetflowError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(NetflowError::BudgetExceeded {
                    backend,
                    phase,
                    progress,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_is_unlimited() {
        let b = SolveBudget::default();
        assert!(b.is_unlimited());
        assert_eq!(b, SolveBudget::UNLIMITED);
        assert!(b.check_rounds("ssp", "augment", u64::MAX).is_ok());
    }

    #[test]
    fn round_limit_trips_at_threshold() {
        let b = SolveBudget::default().with_max_rounds(3);
        assert!(!b.is_unlimited());
        assert!(b.check_rounds("ssp", "augment", 2).is_ok());
        let err = b.check_rounds("ssp", "augment", 3).unwrap_err();
        assert!(matches!(
            err,
            NetflowError::BudgetExceeded {
                backend: "ssp",
                phase: "augment",
                progress: 3,
            }
        ));
        // The deadline alone leaves the round count unlimited.
        let far = Instant::now() + Duration::from_secs(3600);
        let timed = SolveBudget::default().with_deadline(far);
        assert!(!timed.is_unlimited());
        assert!(timed.check_rounds("ssp", "augment", u64::MAX).is_ok());
    }

    #[test]
    fn expired_deadline_trips_every_check() {
        let past = Instant::now() - Duration::from_secs(1);
        let b = SolveBudget::default().with_deadline(past);
        assert!(b.check_rounds("cost_scaling", "refine", 0).is_err());
        assert!(b.check_deadline("reopt", "drain", 0).is_err());
        let future = Instant::now() + Duration::from_secs(3600);
        let ok = SolveBudget::default().with_deadline(future);
        assert!(ok.check_rounds("cost_scaling", "refine", 0).is_ok());
    }

    #[test]
    fn error_display_names_backend_and_phase() {
        let err = SolveBudget::default()
            .with_max_rounds(0)
            .check_rounds("ssp", "augment", 0)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("ssp") && msg.contains("augment"), "{msg}");
    }
}
