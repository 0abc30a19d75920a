//! Solving the flow problem and extracting the allocation.
//!
//! The minimum-cost flow of value `R` is decomposed into unit `s → t` paths;
//! each path is one register's timeline (its *chain* of segments). Segments
//! whose `w → r` arc carries no flow live in memory; their storage addresses
//! are assigned by the left-edge algorithm over memory-residency intervals,
//! which attains the minimum number of storage locations for the interval
//! family the solution induces.

use crate::build::{raw_cost, BuiltNetwork};
use crate::events::{trace_var_into, VarTrace};
use crate::pipeline::PipelineCx;
use crate::problem::AllocationProblem;
use crate::segment::{SegmentId, Segmentation};
use crate::CoreError;
use lemra_energy::MicroEnergy;
use lemra_ir::{Tick, VarId};
use lemra_netflow::{ArcId, FlowSolution, NetflowError};
use std::collections::HashMap;

/// Where a segment lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// In the register file, in the register with this index.
    Register(u32),
    /// In memory (address assigned per variable, see
    /// [`Allocation::memory_address`]).
    Memory,
}

impl Placement {
    /// True for register placements.
    pub fn is_register(self) -> bool {
        matches!(self, Placement::Register(_))
    }
}

/// # Examples
///
/// ```
/// use lemra_core::{allocate, AllocationProblem};
/// use lemra_ir::LifetimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lifetimes =
///     LifetimeTable::from_intervals(5, vec![(1, vec![3], false), (3, vec![5], false)])?;
/// let allocation = allocate(&AllocationProblem::new(lifetimes, 1))?;
/// // Both variables share the single register (a hands off to b).
/// assert_eq!(allocation.registers_used(), 1);
/// assert_eq!(allocation.chains()[0].len(), 2);
/// assert!(allocation.placements().iter().all(|p| p.is_register()));
/// # Ok(())
/// # }
/// ```
/// The solved allocation: a placement for every segment, register chains,
/// and memory addresses.
#[derive(Debug, Clone)]
pub struct Allocation {
    segmentation: Segmentation,
    placements: Vec<Placement>,
    chains: Vec<Vec<SegmentId>>,
    memory_address: Vec<Option<u32>>,
    memory_residency: Vec<Option<(Tick, Tick)>>,
    storage_locations: u32,
    flow_cost: MicroEnergy,
    register_capacity: u32,
}

impl Allocation {
    /// The segmentation the allocation is defined over.
    pub fn segmentation(&self) -> &Segmentation {
        &self.segmentation
    }

    /// The placement of `seg`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn placement(&self, seg: SegmentId) -> Placement {
        self.placements[seg.index()]
    }

    /// Placements for all segments, indexed by [`SegmentId`].
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Register chains: `chains()[r]` is register `r`'s segments in time
    /// order.
    pub fn chains(&self) -> &[Vec<SegmentId>] {
        &self.chains
    }

    /// Number of registers the solution actually uses.
    pub fn registers_used(&self) -> u32 {
        self.chains.len() as u32
    }

    /// The register-file size `R` the problem fixed.
    pub fn register_capacity(&self) -> u32 {
        self.register_capacity
    }

    /// The memory address assigned to `v`, if the variable ever resides in
    /// memory.
    pub fn memory_address(&self, v: VarId) -> Option<u32> {
        self.memory_address.get(v.index()).copied().flatten()
    }

    /// `v`'s memory-residency interval (first write tick to last access
    /// tick), if any.
    pub fn memory_residency(&self, v: VarId) -> Option<(Tick, Tick)> {
        self.memory_residency.get(v.index()).copied().flatten()
    }

    /// Number of distinct memory storage locations used (§7: the region
    /// construction keeps this minimal).
    pub fn storage_locations(&self) -> u32 {
        self.storage_locations
    }

    /// The flow objective: total energy delta against the all-in-memory
    /// baseline. Negative when registers help (they should).
    pub fn flow_cost(&self) -> MicroEnergy {
        self.flow_cost
    }
}

impl Allocation {
    /// Builds an allocation from an explicit per-variable placement
    /// (`Some(register)` or `None` for memory) — used by the baseline
    /// allocators in `lemra-baselines`, which decide placements by other
    /// means but want the same exact accounting and validation.
    ///
    /// All segments of a variable share its placement. [`Allocation::flow_cost`]
    /// is zero for hand-built allocations (it reports the solver objective).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidAllocation`] if two variables in the same
    /// register overlap in time, or the placement list length mismatches.
    pub fn from_var_placements(
        problem: &AllocationProblem,
        placement_of_var: &[Option<u32>],
    ) -> Result<Allocation, CoreError> {
        if placement_of_var.len() != problem.lifetimes.len() {
            return Err(CoreError::InvalidAllocation {
                reason: format!(
                    "{} placements for {} variables",
                    placement_of_var.len(),
                    problem.lifetimes.len()
                ),
            });
        }
        let segmentation = Segmentation::new(&problem.lifetimes, &problem.split);
        let mut placements = vec![Placement::Memory; segmentation.len()];
        let register_count = placement_of_var
            .iter()
            .flatten()
            .map(|r| r + 1)
            .max()
            .unwrap_or(0);
        let mut chains: Vec<Vec<SegmentId>> = vec![Vec::new(); register_count as usize];
        for (id, seg) in segmentation.iter() {
            if let Some(reg) = placement_of_var[seg.var.index()] {
                placements[id.index()] = Placement::Register(reg);
                chains[reg as usize].push(id);
            }
        }
        for chain in &mut chains {
            chain.sort_by_key(|&sid| segmentation.segment(sid).start());
            for pair in chain.windows(2) {
                let prev = segmentation.segment(pair[0]);
                let next = segmentation.segment(pair[1]);
                if next.start() <= prev.end() {
                    return Err(CoreError::InvalidAllocation {
                        reason: format!("{} and {} overlap in one register", prev.var, next.var),
                    });
                }
            }
        }
        chains.retain(|c| !c.is_empty());

        let memory_residency = residency_intervals(&segmentation, &placements, problem);
        let (memory_address, storage_locations) = left_edge(&memory_residency);
        Ok(Allocation {
            segmentation,
            placements,
            chains,
            memory_address,
            memory_residency,
            storage_locations,
            flow_cost: MicroEnergy::ZERO,
            register_capacity: register_count,
        })
    }
}

/// Solves Problem 1 for `problem`.
///
/// # Errors
///
/// * [`CoreError::TooFewRegisters`] if forced segments (restricted memory
///   access times, §5.2) need more simultaneous registers than `R`.
/// * [`CoreError::Flow`] for internal solver failures.
/// * [`CoreError::InvalidAllocation`] if the result fails the structural
///   audit of [`validate`](crate::validate), which every allocation passes
///   through before it returns.
///
/// # Examples
///
/// ```
/// use lemra_core::{allocate, AllocationProblem};
/// use lemra_ir::LifetimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lifetimes = LifetimeTable::from_intervals(
///     6,
///     vec![(1, vec![3], false), (3, vec![6], false), (1, vec![6], false)],
/// )?;
/// let allocation = allocate(&AllocationProblem::new(lifetimes, 2))?;
/// // Two registers hold all three variables (a hands off to b).
/// assert_eq!(allocation.registers_used(), 2);
/// assert_eq!(allocation.storage_locations(), 0);
/// # Ok(())
/// # }
/// ```
pub fn allocate(problem: &AllocationProblem) -> Result<Allocation, CoreError> {
    PipelineCx::new().allocate(problem)
}

/// Maps solver errors to the allocation pipeline's error vocabulary.
pub(crate) fn flow_error(problem: &AllocationProblem, e: NetflowError) -> CoreError {
    match e {
        NetflowError::Infeasible { required, achieved } => CoreError::TooFewRegisters {
            registers: problem.registers,
            shortfall: required - achieved,
        },
        other => CoreError::Flow(other),
    }
}

/// Turns a solved flow into the [`Allocation`]: path decomposition into
/// register chains, placements, residency intervals, left-edge addresses —
/// the pipeline's Bind stage.
pub(crate) fn extract_allocation(
    problem: &AllocationProblem,
    segmentation: Segmentation,
    built: &BuiltNetwork,
    solution: &FlowSolution,
) -> Result<Allocation, CoreError> {
    let n = segmentation.len();
    let mut placements = vec![Placement::Memory; n];

    // Register chains from the path decomposition.
    let seg_of_arc: HashMap<ArcId, SegmentId> = built
        .segment_arc
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, SegmentId(i as u32)))
        .collect();
    let paths = solution
        .decompose_paths(&built.net, built.s, built.t)
        .map_err(CoreError::Flow)?;
    let mut chains: Vec<Vec<SegmentId>> = Vec::new();
    for (path, units) in paths {
        let chain: Vec<SegmentId> = path
            .iter()
            .filter_map(|a| seg_of_arc.get(a).copied())
            .collect();
        if chain.is_empty() {
            continue; // bypass path: unused registers
        }
        debug_assert_eq!(units, 1, "segment arcs have unit capacity");
        let reg = chains.len() as u32;
        for &sid in &chain {
            placements[sid.index()] = Placement::Register(reg);
        }
        chains.push(chain);
    }

    // Cross-check: every segment with flow is on some chain.
    debug_assert!(built
        .segment_arc
        .iter()
        .enumerate()
        .all(|(i, &a)| (solution.flow(a) == 1) == placements[i].is_register()));

    let memory_residency = residency_intervals(&segmentation, &placements, problem);
    let (memory_address, storage_locations) = left_edge(&memory_residency);

    // Undo the tie-break transform to get back to micro-energy units.
    let flow_cost = raw_cost(
        solution,
        built.cost_scale,
        built.cost_unit,
        &built.tie_weights,
    );

    Ok(Allocation {
        segmentation,
        placements,
        chains,
        memory_address,
        memory_residency,
        storage_locations,
        flow_cost: MicroEnergy::from_raw(flow_cost),
        register_capacity: problem.registers,
    })
}

/// Memory-residency interval per variable: from its first memory write to
/// its last memory access (the value occupies its address continuously in
/// between — values are write-once). Every variable replays into one
/// reused trace buffer.
fn residency_intervals(
    segmentation: &Segmentation,
    placements: &[Placement],
    problem: &AllocationProblem,
) -> Vec<Option<(Tick, Tick)>> {
    let mut trace = VarTrace::default();
    (0..problem.lifetimes.len() as u32)
        .map(|v| {
            let var = VarId(v);
            trace_var_into(
                segmentation,
                placements,
                var,
                problem.carry_of(var),
                &mut trace,
            );
            trace.memory_residency
        })
        .collect()
}

/// Left-edge interval assignment; returns per-variable addresses and the
/// number of locations used.
fn left_edge(residency: &[Option<(Tick, Tick)>]) -> (Vec<Option<u32>>, u32) {
    let mut order: Vec<usize> = residency
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_some())
        .map(|(i, _)| i)
        .collect();
    order.sort_by_key(|&i| residency[i].expect("filtered").0);
    let mut address = vec![None; residency.len()];
    let mut last_end: Vec<Tick> = Vec::new();
    for i in order {
        let (start, end) = residency[i].expect("filtered");
        let slot = last_end.iter().position(|&e| e < start);
        match slot {
            Some(a) => {
                last_end[a] = end;
                address[i] = Some(a as u32);
            }
            None => {
                address[i] = Some(last_end.len() as u32);
                last_end.push(end);
            }
        }
    }
    (address, last_end.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemra_ir::LifetimeTable;

    fn two_sequential_one_parallel() -> LifetimeTable {
        // a=[1,3], b=[3,6] can share; c=[1,6] needs its own slot.
        LifetimeTable::from_intervals(
            6,
            vec![
                (1, vec![3], false),
                (3, vec![6], false),
                (1, vec![6], false),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ample_registers_take_everything() {
        let p = AllocationProblem::new(two_sequential_one_parallel(), 4);
        let a = allocate(&p).unwrap();
        assert!(a.placements().iter().all(|p| p.is_register()));
        assert_eq!(a.registers_used(), 2); // a+b share, c alone
        assert_eq!(a.storage_locations(), 0);
        assert!(a.flow_cost() < MicroEnergy::ZERO);
    }

    #[test]
    fn zero_registers_put_everything_in_memory() {
        let p = AllocationProblem::new(two_sequential_one_parallel(), 0);
        let a = allocate(&p).unwrap();
        assert!(a.placements().iter().all(|p| !p.is_register()));
        assert_eq!(a.registers_used(), 0);
        // a and b share one address (disjoint residency), c needs another.
        assert_eq!(a.storage_locations(), 2);
        assert_eq!(a.flow_cost(), MicroEnergy::ZERO);
    }

    #[test]
    fn one_register_hosts_the_chain() {
        let p = AllocationProblem::new(two_sequential_one_parallel(), 1);
        let a = allocate(&p).unwrap();
        assert_eq!(a.registers_used(), 1);
        // The chain a -> b saves two memory round trips; c alone saves one.
        // Default energies make the chain strictly better.
        let chain = &a.chains()[0];
        assert_eq!(chain.len(), 2);
        let vars: Vec<_> = chain
            .iter()
            .map(|&s| a.segmentation().segment(s).var)
            .collect();
        assert_eq!(vars, vec![VarId(0), VarId(1)]);
        assert_eq!(a.memory_address(VarId(2)), Some(0));
        assert_eq!(a.storage_locations(), 1);
    }

    #[test]
    fn excess_registers_flow_through_bypass() {
        let p = AllocationProblem::new(two_sequential_one_parallel(), 100);
        let a = allocate(&p).unwrap();
        assert_eq!(a.registers_used(), 2);
        assert_eq!(a.register_capacity(), 100);
    }

    #[test]
    fn forced_segments_demand_registers() {
        // Both variables live strictly between access times (period 8):
        // forced into registers. With R = 1 the problem is infeasible.
        let table =
            LifetimeTable::from_intervals(8, vec![(2, vec![4], false), (3, vec![5], false)])
                .unwrap();
        let p = AllocationProblem::new(table.clone(), 1).with_access_period(8);
        assert!(matches!(
            allocate(&p),
            Err(CoreError::TooFewRegisters { .. })
        ));
        let p2 = AllocationProblem::new(table, 2).with_access_period(8);
        let a = allocate(&p2).unwrap();
        assert!(a.placements().iter().all(|p| p.is_register()));
    }

    #[test]
    fn warm_sweep_matches_allocate_across_voltage_and_size_sweep() {
        use lemra_energy::EnergyModel;
        let table = two_sequential_one_parallel();
        let mut sweep = PipelineCx::new();
        let points: Vec<AllocationProblem> = [(3.3, 1u32), (2.4, 1), (1.8, 1), (1.8, 2), (1.0, 3)]
            .into_iter()
            .map(|(volts, regs)| {
                AllocationProblem::new(table.clone(), regs)
                    .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts))
            })
            .collect();
        for p in &points {
            let warm = sweep.allocate_warm(p).unwrap();
            let cold = allocate(p).unwrap();
            assert_eq!(warm.flow_cost(), cold.flow_cost());
            assert_eq!(warm.placements(), cold.placements());
            assert_eq!(warm.chains(), cold.chains());
        }
        assert!(
            sweep.warm_solves() >= 3,
            "voltage/size sweep should stay warm"
        );
    }

    #[test]
    fn warm_sweep_survives_topology_change_and_infeasibility() {
        let table = two_sequential_one_parallel();
        let mut sweep = PipelineCx::new();
        sweep
            .allocate_warm(&AllocationProblem::new(table.clone(), 2))
            .unwrap();
        // Forced segments beyond R: infeasible mid-sweep.
        let forced =
            LifetimeTable::from_intervals(8, vec![(2, vec![4], false), (3, vec![5], false)])
                .unwrap();
        let p = AllocationProblem::new(forced, 1).with_access_period(8);
        assert!(matches!(
            sweep.allocate_warm(&p),
            Err(CoreError::TooFewRegisters { .. })
        ));
        // And recovers on the next point.
        let a = sweep
            .allocate_warm(&AllocationProblem::new(table, 2))
            .unwrap();
        assert_eq!(a.registers_used(), 2);
    }

    #[test]
    fn memory_residency_covers_memory_segments() {
        let p = AllocationProblem::new(two_sequential_one_parallel(), 0);
        let a = allocate(&p).unwrap();
        let (start, end) = a.memory_residency(VarId(2)).unwrap();
        assert_eq!(start, lemra_ir::Step(1).write_tick());
        assert_eq!(end, lemra_ir::Step(6).read_tick());
        assert!(a.memory_residency(VarId(0)).is_some());
    }
}
