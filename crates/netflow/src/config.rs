//! Process-wide runtime configuration, read once.
//!
//! The runtime knobs — backend and worker threads — live in one
//! [`LemraConfig`], parsed from the environment exactly once per process
//! (or installed explicitly by a binary's flag parser before first use).
//! Every consumer reads the same snapshot, so two parallel drivers can
//! never disagree about the thread count mid-run.
//!
//! Parsing is strict: a malformed variable is an error carrying the list of
//! accepted values, never a silent fallback (a mistyped
//! `LEMRA_BACKEND=cost_scalng` used to run `Ssp` without a word).

use crate::solver::Backend;
use crate::NetflowError;
use std::sync::OnceLock;

/// Environment variable selecting the min-cost-flow [`Backend`]
/// (`ssp`, `cost_scaling`, `auto`; default `ssp`).
pub const BACKEND_ENV: &str = "LEMRA_BACKEND";

/// Environment variable overriding the worker-thread count (`1` forces
/// serial execution; useful for debugging and timing comparisons).
pub const THREADS_ENV: &str = "LEMRA_THREADS";

/// Former switch for the region-parallel solver backend, which has been
/// removed: every network now solves in the plain SSP backend. No value has
/// any effect and nothing reads it from the environment; the type stays so
/// [`LemraConfig::par_solve`] and the second argument of
/// [`Backend::select_with`] keep compiling until they are removed together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParSolve {
    /// The default.
    #[default]
    Auto,
    /// Formerly: always use the parallel solver.
    Force,
    /// Formerly: never use the parallel solver.
    Off,
}

/// The process-wide configuration snapshot.
///
/// Obtain it with [`LemraConfig::get`]; binaries with their own flags build
/// one ([`LemraConfig::from_env`] then field overrides) and
/// [`install`](LemraConfig::install) it before any library call.
///
/// # Examples
///
/// ```
/// use lemra_netflow::LemraConfig;
///
/// let cfg = LemraConfig::get();
/// assert!(cfg.threads.map_or(true, |n| n > 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LemraConfig {
    /// Min-cost-flow algorithm the pipeline solve stages use.
    pub backend: Backend,
    /// Worker-thread cap for parallel sweeps; `None` means one per item up
    /// to the machine's parallelism.
    pub threads: Option<usize>,
    /// No effect (see [`ParSolve`]); always [`ParSolve::Auto`] from the
    /// environment. To be removed.
    pub par_solve: ParSolve,
}

impl Default for LemraConfig {
    fn default() -> Self {
        Self {
            backend: Backend::Ssp,
            threads: None,
            par_solve: ParSolve::Auto,
        }
    }
}

static CONFIG: OnceLock<LemraConfig> = OnceLock::new();

impl LemraConfig {
    /// Builds a configuration from the environment ([`BACKEND_ENV`],
    /// [`THREADS_ENV`]); unset variables fall back to the defaults. With
    /// the `fault-inject` feature it also loads the `LEMRA_FAULT` plan.
    ///
    /// # Errors
    ///
    /// [`NetflowError::InvalidArc`] naming the offending variable and the
    /// accepted values when one is set but malformed — a typo'd
    /// `LEMRA_BACKEND` must fail loudly, not silently run a different
    /// solver than the one the measurement was labelled with, and a typo'd
    /// `LEMRA_FAULT` must not run fault-free.
    pub fn from_env() -> Result<Self, NetflowError> {
        #[cfg(feature = "fault-inject")]
        crate::fault::FaultPlan::ensure_env_plan()?;
        Self::from_vars(
            std::env::var(BACKEND_ENV).ok().as_deref(),
            std::env::var(THREADS_ENV).ok().as_deref(),
        )
    }

    /// [`from_env`](Self::from_env) over explicit values (`None` = unset),
    /// so parsing is testable without racy process-environment mutation.
    ///
    /// # Errors
    ///
    /// Same as [`from_env`](Self::from_env).
    pub fn from_vars(backend: Option<&str>, threads: Option<&str>) -> Result<Self, NetflowError> {
        let backend = backend.map_or(Ok(Backend::default()), str::parse)?;
        let threads = threads
            .map(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| NetflowError::InvalidArc {
                        reason: format!("{THREADS_ENV}=`{v}` is not a positive thread count"),
                    })
            })
            .transpose()?;
        Ok(Self {
            backend,
            threads,
            ..Self::default()
        })
    }

    /// The process-wide snapshot, initialised from the environment on first
    /// call (unless a binary [`install`](Self::install)ed one earlier).
    ///
    /// # Panics
    ///
    /// On a malformed environment variable (see
    /// [`from_env`](Self::from_env)) — library code has no channel to
    /// surface the error, and proceeding with a silently-substituted
    /// default would falsify any measurement keyed on the variable.
    /// Binaries that want a graceful message call `from_env` themselves and
    /// install the result.
    pub fn get() -> &'static LemraConfig {
        CONFIG.get_or_init(|| match Self::from_env() {
            Ok(cfg) => cfg,
            Err(e) => panic!("invalid lemra environment: {e}"),
        })
    }

    /// Installs `self` as the process-wide snapshot. Must run before the
    /// first [`get`](Self::get) (i.e. before any solver/pipeline call);
    /// returns whether it won the slot. Binaries call this right after flag
    /// parsing; libraries never call it.
    pub fn install(self) -> bool {
        CONFIG.set(self).is_ok()
    }

    /// Effective worker count for `len` independent items: one per item up
    /// to the machine's parallelism, capped by [`Self::threads`].
    pub fn worker_count(&self, len: usize) -> usize {
        let hw = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        hw.min(len).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ssp_with_no_thread_cap() {
        let cfg = LemraConfig::default();
        assert_eq!(cfg.backend, Backend::Ssp);
        assert_eq!(cfg.threads, None);
    }

    #[test]
    fn worker_count_honours_cap_and_len() {
        let cfg = LemraConfig {
            threads: Some(4),
            ..LemraConfig::default()
        };
        assert_eq!(cfg.worker_count(100), 4);
        assert_eq!(cfg.worker_count(2), 2);
        assert_eq!(cfg.worker_count(0), 1);
        let serial = LemraConfig {
            threads: Some(1),
            ..LemraConfig::default()
        };
        assert_eq!(serial.worker_count(100), 1);
    }

    #[test]
    fn get_returns_a_stable_snapshot() {
        assert_eq!(LemraConfig::get(), LemraConfig::get());
    }

    #[test]
    fn from_vars_parses_each_knob() {
        let cfg = LemraConfig::from_vars(Some("auto"), Some("3")).unwrap();
        assert_eq!(cfg.backend, Backend::Auto);
        assert_eq!(cfg.threads, Some(3));
        let unset = LemraConfig::from_vars(None, None).unwrap();
        assert_eq!(unset, LemraConfig::default());
    }

    #[test]
    fn unknown_backend_is_an_error_listing_valid_names() {
        // Typos and the names of removed backends are rejected alike.
        for bad in ["cost_scalng", "simplex", "cycle", "scaling"] {
            let err = LemraConfig::from_vars(Some(bad), None).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("`{bad}`")),
                "names the offender: {msg}"
            );
            for name in ["ssp", "cost_scaling", "auto"] {
                assert!(msg.contains(name), "lists `{name}`: {msg}");
            }
        }
    }

    #[test]
    fn cost_scaling_backend_parses_from_env_vars() {
        let cfg = LemraConfig::from_vars(Some("cost_scaling"), None).unwrap();
        assert_eq!(cfg.backend, Backend::CostScaling);
        let dashed = LemraConfig::from_vars(Some("cost-scaling"), None).unwrap();
        assert_eq!(dashed.backend, Backend::CostScaling);
    }

    #[test]
    fn malformed_numeric_knobs_are_errors() {
        assert!(LemraConfig::from_vars(None, Some("zero")).is_err());
        assert!(LemraConfig::from_vars(None, Some("0")).is_err());
        assert!(LemraConfig::from_vars(None, Some("-1")).is_err());
    }
}
