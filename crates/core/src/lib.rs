//! Simultaneous low-energy memory partitioning and register allocation by
//! minimum-cost network flow — the core contribution of Gebotys,
//! *Low Energy Memory and Register Allocation Using Network Flow*, DAC 1997.
//!
//! Given a scheduled basic block ([`lemra_ir::LifetimeTable`]), a register
//! file of `R` registers, and an [energy model](lemra_energy::EnergyModel),
//! [`allocate`] decides — *simultaneously and globally optimally* — which
//! data variables live in registers and which in memory, which variables
//! share each register, and which memory address each memory-resident
//! variable occupies, so that total storage energy (eq. 1 or eq. 2 of the
//! paper) is minimal.
//!
//! The pipeline:
//!
//! 1. [`Segmentation`] splits lifetimes at multiple reads, restricted
//!    memory-access times and manual cut points (§5.2), marking segments
//!    that *must* be registered (flow lower bound 1);
//! 2. the flow network is built per §5.1 ([`GraphStyle::Regions`], minimum
//!    storage locations) or per ref \[8\] ([`GraphStyle::AllPairs`]), with
//!    arc costs from equations (3)–(10);
//! 3. a min-cost flow of value `R` is solved in polynomial time
//!    ([`lemra_netflow`]); its unit paths are the register chains;
//! 4. memory residents get left-edge addresses; an optional second flow
//!    pass ([`reallocate_memory`]) minimises address switching (§5);
//! 5. [`AllocationReport`] replays the solution event-by-event for exact
//!    access counts and energies, and [`validate`] audits the structure.
//!
//! Steps 1–4 are the typed stages of [`PipelineCx`]
//! (`Segment → Profile → Build → Solve → Bind → Validate`), which owns the
//! configured min-cost-flow [`Backend`](lemra_netflow::Backend), the
//! warm-start state for sweeps, and per-stage timing/flow counters (see
//! DESIGN.md §8).
//!
//! # Examples
//!
//! ```
//! use lemra_core::{allocate, AllocationProblem, AllocationReport};
//! use lemra_ir::LifetimeTable;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four variables, two registers.
//! let lifetimes = LifetimeTable::from_intervals(
//!     8,
//!     vec![
//!         (1, vec![3], false),
//!         (2, vec![5], false),
//!         (3, vec![8], false),
//!         (5, vec![8], false),
//!     ],
//! )?;
//! let problem = AllocationProblem::new(lifetimes, 2);
//! let allocation = allocate(&problem)?;
//! let report = AllocationReport::new(&problem, &allocation);
//! assert!(report.registers_used <= 2);
//! assert!(report.static_energy < lemra_core::baseline_energy(&problem).as_units());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod build;
mod codegen;
mod costs;
mod events;
mod modules;
mod multiblock;
mod offchip;
mod pipeline;
mod ports;
mod problem;
mod realloc;
mod report;
mod segment;
mod stats;
mod synthesis;
mod validate;
mod viz;

pub use allocator::{allocate, Allocation, Placement};
pub use build::{build_network, build_network_bipartite, NetworkForm, NetworkView};
pub use codegen::{storage_plan, Operand, StorageInstr, StoragePlan};
pub use events::{trace_var, MemAccess, VarTrace};
pub use modules::{partition_memory_modules, SleepPartition};
pub use multiblock::{
    allocate_chain, allocate_chain_threads, allocate_program, allocate_program_threads,
    allocate_program_with, BlockChain, ChainAllocation, ProgramAllocation,
};
pub use offchip::{assign_memory_tiers, OffchipModel, TieredAssignment};
pub use pipeline::{PipelineCx, PipelineStats, Stage, StageTiming};
pub use ports::{allocate_with_ports, PortLimits};
pub use problem::{AllocationProblem, GraphStyle};
pub use realloc::{reallocate_memory, MemoryReallocation};
pub use report::{baseline_energy, AllocationReport};
pub use segment::{Boundary, Segment, SegmentId, Segmentation, SplitOptions};
pub use stats::StatsSnapshot;
pub use synthesis::{synthesize, SynthesisConfig, SynthesisError, SynthesisResult};
pub use validate::validate;
pub use viz::{render_allocation, render_lifetimes};

use lemra_netflow::NetflowError;

/// Errors of the allocation pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Forced register segments need more simultaneous registers than the
    /// problem provides.
    TooFewRegisters {
        /// Registers available.
        registers: u32,
        /// How many more flow units were needed.
        shortfall: i64,
    },
    /// A port budget could not be met by forcing variables into registers.
    PortsUnsatisfiable {
        /// Read ports available.
        read_ports: u32,
        /// Write ports available.
        write_ports: u32,
    },
    /// The underlying flow solver failed.
    Flow(NetflowError),
    /// An allocation failed structural validation.
    InvalidAllocation {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A multi-block chain description is malformed.
    BadChain {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// An internal consistency check failed: a bug in the pipeline, not a
    /// property of the problem.
    Internal {
        /// Human-readable description of the broken invariant.
        reason: String,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::TooFewRegisters {
                registers,
                shortfall,
            } => write!(
                f,
                "register file of {registers} cannot hold forced segments (short {shortfall} flow units)"
            ),
            CoreError::PortsUnsatisfiable {
                read_ports,
                write_ports,
            } => write!(
                f,
                "memory port budget ({read_ports}r/{write_ports}w) unsatisfiable"
            ),
            CoreError::Flow(e) => write!(f, "flow solver: {e}"),
            CoreError::InvalidAllocation { reason } => {
                write!(f, "invalid allocation: {reason}")
            }
            CoreError::BadChain { reason } => write!(f, "bad block chain: {reason}"),
            CoreError::Internal { reason } => write!(f, "internal error: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetflowError> for CoreError {
    fn from(e: NetflowError) -> Self {
        CoreError::Flow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = CoreError::TooFewRegisters {
            registers: 2,
            shortfall: 1,
        };
        assert!(e.to_string().contains("2"));
        let f = CoreError::Flow(NetflowError::NegativeCycle);
        assert!(std::error::Error::source(&f).is_some());
    }
}
