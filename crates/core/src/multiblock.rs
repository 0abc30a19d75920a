//! Beyond basic blocks (§7: "extending this problem to very large basic
//! blocks or beyond basic blocks should be a viable future research
//! direction").
//!
//! A [`BlockChain`] is a sequence of scheduled basic blocks executed back to
//! back; each block's live-out variables feed named variables of the next
//! block. [`allocate_chain`] allocates the blocks in order, threading the
//! boundary state through: a value the previous block left **in a register**
//! enters the next block's flow problem as register-carried (staying put is
//! free; spilling it pays the boundary store), and a value left **in
//! memory** enters as memory-carried (already stored; registering it costs a
//! fetch). Register indices may differ between blocks — register files
//! persist, and the code generator renames freely, so alignment carries no
//! energy cost.
//!
//! # The warm chain walk
//!
//! The boundary threading makes block `i + 1` depend on block `i`'s
//! committed placements, so the walk is serial: each block's carried sets
//! come from its predecessor's allocation, and the block is solved on one
//! [`PipelineCx`] with [`PipelineCx::allocate_warm`]. When a block has the
//! same topology as the one before it (loop tiles, unrolled kernels), the
//! context keeps the retained network. A block with the same pricing
//! inputs (energy model, register accounting, register count,
//! memory-carried set, and activity under the activity model) as its
//! predecessor, as in a loop tile whose boundary matches its
//! predecessor's, gets the previous block's allocation back with no
//! re-price and no Solve or Bind stage. A block with other inputs is
//! re-priced; if that leaves the network as it was and the block carries
//! the same variables in memory, the previous allocation is returned too,
//! and otherwise the previous optimum is repaired instead of solved cold.
//! Any topology change (other lifetimes, or a boundary that moves a
//! variable between register- and memory-carried) rebuilds the network at
//! the cost of a cold solve. The tie-break transform makes every optimum
//! unique, so the bytes equal a cold [`allocate`](crate::allocate) of each
//! boundary-threaded problem.

use crate::allocator::{Allocation, Placement};
use crate::pipeline::PipelineCx;
use crate::problem::AllocationProblem;
use crate::realloc::{reallocate_memory_with, MemoryReallocation};
use crate::report::AllocationReport;
use crate::CoreError;
use lemra_ir::VarId;

/// A pipeline of blocks with boundary links.
#[derive(Debug, Clone)]
pub struct BlockChain {
    /// The blocks, in execution order. Any `carried_in_*` markings on
    /// blocks after the first are overwritten by the boundary threading.
    pub blocks: Vec<AllocationProblem>,
    /// `links[i]` connects block `i` to block `i + 1`: `(out, in)` pairs
    /// where `out` is live-out in block `i` and `in` is the same value in
    /// block `i + 1`. Must have `blocks.len() - 1` entries.
    pub links: Vec<Vec<(VarId, VarId)>>,
}

/// The result of allocating a [`BlockChain`].
#[derive(Debug, Clone)]
pub struct ChainAllocation {
    /// Per-block allocations, in execution order.
    pub allocations: Vec<Allocation>,
    /// Per-block exact reports (with boundary-aware accounting).
    pub reports: Vec<AllocationReport>,
    /// The boundary-threaded problems actually solved (blocks after the
    /// first carry the `carried_in_*` markings derived from their
    /// predecessor).
    pub problems: Vec<AllocationProblem>,
}

impl ChainAllocation {
    /// Total static energy over the whole chain.
    pub fn total_static_energy(&self) -> f64 {
        self.reports.iter().map(|r| r.static_energy).sum()
    }

    /// Total activity-model energy over the whole chain.
    pub fn total_activity_energy(&self) -> f64 {
        self.reports.iter().map(|r| r.activity_energy).sum()
    }

    /// Total memory accesses over the whole chain.
    pub fn total_mem_accesses(&self) -> u32 {
        self.reports
            .iter()
            .map(AllocationReport::mem_accesses)
            .sum()
    }
}

/// # Examples
///
/// ```
/// use lemra_core::{allocate_chain, AllocationProblem, BlockChain};
/// use lemra_ir::{LifetimeTable, VarId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let b0 = LifetimeTable::from_intervals(3, vec![(1, vec![2], true)])?;
/// let b1 = LifetimeTable::from_intervals(3, vec![(1, vec![3], false)])?;
/// let chain = BlockChain {
///     blocks: vec![AllocationProblem::new(b0, 2), AllocationProblem::new(b1, 2)],
///     links: vec![vec![(VarId(0), VarId(0))]],
/// };
/// let result = allocate_chain(&chain)?;
/// // The linked value rides a register across the boundary: no memory.
/// assert_eq!(result.total_mem_accesses(), 0);
/// # Ok(())
/// # }
/// ```
///
/// Allocates every block of `chain`, threading boundary placements.
///
/// # Errors
///
/// * [`CoreError::BadChain`] if the link lists do not match the block count
///   or reference variables that are not live-out / out of range.
/// * Any error of [`allocate`](crate::allocate) on an individual block.
pub fn allocate_chain(chain: &BlockChain) -> Result<ChainAllocation, CoreError> {
    allocate_chain_with(&mut PipelineCx::new(), chain)
}

/// [`allocate_chain`] with a worker count, kept so existing callers
/// compile. `workers` is ignored: the walk is serial.
///
/// # Errors
///
/// Same as [`allocate_chain`].
pub fn allocate_chain_threads(
    chain: &BlockChain,
    _workers: usize,
) -> Result<ChainAllocation, CoreError> {
    allocate_chain(chain)
}

/// [`allocate_chain`] composed onto an existing [`PipelineCx`]: shared
/// backend, warm state and cumulative per-stage counters across all blocks.
pub(crate) fn allocate_chain_with(
    cx: &mut PipelineCx,
    chain: &BlockChain,
) -> Result<ChainAllocation, CoreError> {
    validate_chain(chain)?;
    let n = chain.blocks.len();
    let mut allocations: Vec<Allocation> = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    let mut problems = Vec::with_capacity(n);
    for (i, block) in chain.blocks.iter().enumerate() {
        let mut problem = block.clone();
        if i > 0 {
            problem.carried_in_memory.clear();
            problem.carried_in_register.clear();
            let prev: &Allocation = &allocations[i - 1];
            for &(out, inv) in &chain.links[i - 1] {
                match last_placement(prev, out) {
                    Placement::Register(_) => problem.carried_in_register.push(inv),
                    Placement::Memory => problem.carried_in_memory.push(inv),
                }
            }
        }
        let allocation = cx.allocate_warm(&problem)?;
        reports.push(AllocationReport::new(&problem, &allocation));
        allocations.push(allocation);
        problems.push(problem);
    }
    Ok(ChainAllocation {
        allocations,
        reports,
        problems,
    })
}

fn validate_chain(chain: &BlockChain) -> Result<(), CoreError> {
    if chain.blocks.is_empty() {
        return Err(CoreError::BadChain {
            reason: "chain has no blocks".to_owned(),
        });
    }
    if chain.links.len() + 1 != chain.blocks.len() {
        return Err(CoreError::BadChain {
            reason: format!(
                "{} blocks need {} link lists, got {}",
                chain.blocks.len(),
                chain.blocks.len() - 1,
                chain.links.len()
            ),
        });
    }
    for (i, links) in chain.links.iter().enumerate() {
        for &(out, inv) in links {
            if out.index() >= chain.blocks[i].lifetimes.len() {
                return Err(CoreError::BadChain {
                    reason: format!("block {i}: out-variable {out} out of range"),
                });
            }
            if !chain.blocks[i].lifetimes.lifetime(out).live_out {
                return Err(CoreError::BadChain {
                    reason: format!("block {i}: {out} is linked but not live-out"),
                });
            }
            if inv.index() >= chain.blocks[i + 1].lifetimes.len() {
                return Err(CoreError::BadChain {
                    reason: format!("block {}: in-variable {inv} out of range", i + 1),
                });
            }
        }
    }
    Ok(())
}

/// A whole-program result: the boundary-threaded chain allocation plus the
/// second-stage memory re-allocation of every block.
#[derive(Debug, Clone)]
pub struct ProgramAllocation {
    /// The per-block allocations with boundary threading.
    pub chain: ChainAllocation,
    /// Per-block second-stage memory re-allocations (address assignment
    /// minimising address-line switching), in execution order.
    pub realloc: Vec<MemoryReallocation>,
}

impl ProgramAllocation {
    /// Total post-reallocation address-line switching over the program.
    pub fn total_switching(&self) -> f64 {
        self.realloc.iter().map(|r| r.switching).sum()
    }
}

/// Allocates a whole program: [`allocate_chain`] over every block, then
/// the second-stage memory re-allocation
/// ([`reallocate_memory`](crate::reallocate_memory)) of each block on the
/// same context.
///
/// # Errors
///
/// Same as [`allocate_chain`] and
/// [`reallocate_memory`](crate::reallocate_memory).
pub fn allocate_program(chain: &BlockChain) -> Result<ProgramAllocation, CoreError> {
    allocate_program_with(&mut PipelineCx::new(), chain)
}

/// [`allocate_program`] with a worker count, kept so existing callers
/// compile. `workers` is ignored: the walk is serial.
///
/// # Errors
///
/// Same as [`allocate_program`].
pub fn allocate_program_threads(
    chain: &BlockChain,
    _workers: usize,
) -> Result<ProgramAllocation, CoreError> {
    allocate_program(chain)
}

/// [`allocate_program`] composed onto an existing [`PipelineCx`]: the
/// allocation server runs each request on its worker's long-lived context
/// so per-request solve budgets and incident counters apply, and the
/// context's backend and warm state carry across requests.
///
/// # Errors
///
/// Same as [`allocate_program`].
pub fn allocate_program_with(
    cx: &mut PipelineCx,
    chain: &BlockChain,
) -> Result<ProgramAllocation, CoreError> {
    let chain_allocation = allocate_chain_with(cx, chain)?;
    let realloc = chain_allocation
        .problems
        .iter()
        .zip(&chain_allocation.allocations)
        .map(|(problem, allocation)| reallocate_memory_with(cx, problem, allocation))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ProgramAllocation {
        chain: chain_allocation,
        realloc,
    })
}

/// Placement of `var`'s last segment — where the value sits when the block
/// ends.
fn last_placement(allocation: &Allocation, var: VarId) -> Placement {
    let seg = allocation.segmentation();
    let count = seg.segments_of(var).len();
    allocation.placement(seg.id_of(var, count - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemra_ir::LifetimeTable;

    /// Block 0: two variables, `a` live-out. Block 1: consumes `a` (as its
    /// variable 0) plus one local.
    fn two_block_chain(registers: u32) -> BlockChain {
        let b0 = LifetimeTable::from_intervals(4, vec![(1, vec![3], true), (2, vec![4], false)])
            .unwrap();
        let b1 =
            LifetimeTable::from_intervals(4, vec![(1, vec![2, 4], false), (2, vec![3], false)])
                .unwrap();
        BlockChain {
            blocks: vec![
                AllocationProblem::new(b0, registers),
                AllocationProblem::new(b1, registers),
            ],
            links: vec![vec![(VarId(0), VarId(0))]],
        }
    }

    #[test]
    fn register_carry_is_free() {
        let chain = two_block_chain(4);
        let r = allocate_chain(&chain).unwrap();
        // Plenty of registers: `a` stays registered through the boundary.
        assert!(r.problems[1].carried_in_register.contains(&VarId(0)));
        // The carried value enters block 1's register file without a write.
        assert_eq!(r.total_mem_accesses(), 0);
        let block1 = &r.reports[1];
        // Block 1: only its local variable writes a register; `a` is free.
        assert_eq!(block1.reg_writes, 1);
    }

    #[test]
    fn memory_carry_costs_a_fetch_not_a_write() {
        let mut chain = two_block_chain(4);
        chain.blocks[0].registers = 0; // block 0 spills everything
        let r = allocate_chain(&chain).unwrap();
        assert!(r.problems[1].carried_in_memory.contains(&VarId(0)));
        // Block 0: 2 writes + 2 reads... `a` is live-out so its external
        // read belongs to block 1 now? No — the link replaces the external
        // read: block 0 still accounts the live-out read per its own table.
        let b1 = &r.reports[1];
        // Block 1 registers `a` (registers are free): one fetch, no write.
        assert!(b1.mem_reads >= 1);
        assert_eq!(b1.mem_writes, 0);
    }

    #[test]
    fn chain_totals_sum_blocks() {
        let chain = two_block_chain(1);
        let r = allocate_chain(&chain).unwrap();
        let total: f64 = r.reports.iter().map(|x| x.static_energy).sum();
        assert!((r.total_static_energy() - total).abs() < 1e-12);
        assert_eq!(r.allocations.len(), 2);
    }

    #[test]
    fn bad_chains_are_rejected() {
        let mut chain = two_block_chain(2);
        chain.links[0][0].0 = VarId(1); // not live-out
        assert!(matches!(
            allocate_chain(&chain),
            Err(CoreError::BadChain { .. })
        ));
        let mut chain = two_block_chain(2);
        chain.links.push(Vec::new());
        assert!(matches!(
            allocate_chain(&chain),
            Err(CoreError::BadChain { .. })
        ));
        let chain = BlockChain {
            blocks: Vec::new(),
            links: Vec::new(),
        };
        assert!(matches!(
            allocate_chain(&chain),
            Err(CoreError::BadChain { .. })
        ));
    }

    /// `n` blocks, each four variables over eight ticks, variable 3
    /// live-out and linked to variable 0 of the next block, with
    /// `registers(i)` registers in block `i`.
    fn long_chain(n: usize, registers: impl Fn(usize) -> u32) -> BlockChain {
        let blocks: Vec<AllocationProblem> = (0..n)
            .map(|i| {
                let table = LifetimeTable::from_intervals(
                    8,
                    vec![
                        (1, vec![2, 7], false),
                        (2, vec![4], false),
                        (3, vec![5, 6], false),
                        (4, vec![7], true),
                    ],
                )
                .unwrap();
                AllocationProblem::new(table, registers(i))
            })
            .collect();
        let links = (0..n - 1).map(|_| vec![(VarId(3), VarId(0))]).collect();
        BlockChain { blocks, links }
    }

    /// Alternating register budgets: the squeezed blocks leave the linked
    /// value in memory, so `carried_in_register` changes mid-chain and the
    /// walk runs both the re-priced path and the rebuild path.
    fn alternating_chain(n: usize) -> BlockChain {
        long_chain(n, |i| if i % 3 == 2 { 1 } else { 3 })
    }

    #[test]
    fn warm_walk_equals_cold_allocation_of_every_block() {
        use lemra_netflow::Backend;
        let chain = alternating_chain(16);
        for backend in [Backend::Ssp, Backend::CostScaling] {
            let mut cx = PipelineCx::with_backend(backend);
            let walk = allocate_chain_with(&mut cx, &chain).unwrap();
            let carried: Vec<&Vec<VarId>> = walk
                .problems
                .iter()
                .map(|p| &p.carried_in_register)
                .collect();
            assert!(carried.windows(2).any(|w| w[0] == w[1]), "no covered block");
            assert!(carried.windows(2).any(|w| w[0] != w[1]), "no rebuild");
            assert!(cx.warm_solves() > 0, "{backend:?}: no block re-priced");
            for (i, problem) in walk.problems.iter().enumerate() {
                let cold = PipelineCx::with_backend(backend).allocate(problem).unwrap();
                assert_eq!(
                    walk.reports[i],
                    AllocationReport::new(problem, &cold),
                    "{backend:?} block {i}"
                );
                assert_eq!(
                    format!("{:?}", walk.allocations[i]),
                    format!("{cold:?}"),
                    "{backend:?} block {i}"
                );
            }
        }
    }

    #[test]
    fn identical_tiles_solve_cold_once() {
        let mut chain = long_chain(8, |_| 3);
        // Block 0 enters with the boundary every later tile sees, so all
        // eight tiles share one topology.
        chain.blocks[0].carried_in_register = vec![VarId(0)];
        let mut cx = PipelineCx::new();
        let walk = allocate_chain_with(&mut cx, &chain).unwrap();
        assert!(walk
            .problems
            .iter()
            .all(|p| p.carried_in_register == [VarId(0)]));
        // The tiles are bit-identical too: the first builds and solves
        // cold, and the seven after it have its pricing inputs, so they
        // reuse its answer without a re-price.
        assert_eq!(
            (cx.cold_solves(), cx.warm_solves(), cx.reused_answers()),
            (1, 0, 7)
        );
        assert_eq!(cx.stats().stage(crate::Stage::Build).runs, 1);
    }

    #[test]
    fn program_allocation_reallocs_every_block() {
        let chain = alternating_chain(6);
        let program = allocate_program(&chain).unwrap();
        assert_eq!(program.realloc.len(), 6);
        for (i, (problem, allocation)) in program
            .chain
            .problems
            .iter()
            .zip(&program.chain.allocations)
            .enumerate()
        {
            let realloc = crate::reallocate_memory(problem, allocation).unwrap();
            assert_eq!(program.realloc[i], realloc, "block {i}");
        }
        assert!(program.total_switching() >= 0.0);
    }

    #[test]
    fn boundary_coupling_saves_energy_vs_oblivious() {
        // Boundary-aware chain vs allocating block 1 as if `a` were locally
        // defined (which would wrongly credit a saved memory write).
        let chain = two_block_chain(2);
        let coupled = allocate_chain(&chain).unwrap();
        // With 2 registers everything fits; the coupled chain has zero
        // memory traffic.
        assert_eq!(coupled.total_mem_accesses(), 0);
    }
}
