//! Whole-program workload tier: thousands of variables across dozens of
//! linked blocks.
//!
//! Two generator families stress the multi-block pipeline at the scale the
//! single-block benches never reach:
//!
//! * [`loop_nest`] — register-pressure-aware loop-nest tiling in the style
//!   of Domagała et al. (arXiv 1406.0582): a nest is tiled into
//!   structurally **identical** blocks (one per tile) whose accumulators
//!   are live-out and linked to the next tile. Identical topology across
//!   tiles is the warm-start fast path — the walk keeps one retained
//!   network instead of rebuilding it per tile. A tile whose pricing
//!   inputs equal its predecessor's (the tiles differ only in activity,
//!   which the static model they use never reads) reuses that tile's
//!   answer without a re-price; only a tile whose boundary changes them
//!   is re-priced.
//! * [`min_reg_trace`] — min-register scheduling traces in the style of
//!   Chen's GPU value-lifetime work (arXiv 2303.06855): bursty, per-block
//!   *distinct* lifetime patterns with alternating register budgets, so
//!   some boundaries carry values in memory and the warm walk rebuilds
//!   and solves every block cold.
//!
//! Both are deterministic in their seed. Tier presets span 1k–8k variables
//! over 8–64 blocks (`tier_1k`/`tier_4k`/`tier_8k`).

use crate::random::random_patterns;
use lemra_core::{AllocationProblem, BlockChain};
use lemra_ir::{LifetimeTable, VarId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the tiled loop-nest generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopNestConfig {
    /// Number of tiles (= blocks in the chain).
    pub tiles: usize,
    /// Variables per tile, accumulators included.
    pub vars_per_tile: usize,
    /// Accumulators carried tile-to-tile (live-out, linked 1:1).
    pub accumulators: usize,
    /// Control steps per tile.
    pub steps: u32,
    /// Register-file size of every tile.
    pub registers: u32,
    /// Seed for the per-tile activity patterns.
    pub seed: u64,
}

impl LoopNestConfig {
    /// 1k-variable tier: 8 tiles × 128 variables.
    pub fn tier_1k(seed: u64) -> Self {
        Self {
            tiles: 8,
            vars_per_tile: 128,
            accumulators: 8,
            steps: 96,
            registers: 12,
            seed,
        }
    }

    /// 4k-variable tier: 32 tiles × 128 variables — the acceptance-floor
    /// instance (≥4k variables, ≥32 blocks).
    pub fn tier_4k(seed: u64) -> Self {
        Self {
            tiles: 32,
            ..Self::tier_1k(seed)
        }
    }

    /// 8k-variable tier: 64 tiles × 128 variables.
    pub fn tier_8k(seed: u64) -> Self {
        Self {
            tiles: 64,
            ..Self::tier_1k(seed)
        }
    }

    /// Total variables over the whole chain.
    pub fn total_vars(&self) -> usize {
        self.tiles * self.vars_per_tile
    }
}

/// One tile's lifetime table. Every tile of a nest shares this exact
/// topology; only activity differs.
fn tile_table(cfg: &LoopNestConfig) -> LifetimeTable {
    let steps = cfg.steps;
    let body = cfg.vars_per_tile - cfg.accumulators;
    let mut intervals = Vec::with_capacity(cfg.vars_per_tile);
    // Accumulators: defined at tile entry (carried in from the previous
    // tile), re-read at two interior update points, live-out into the next
    // tile.
    for _ in 0..cfg.accumulators {
        intervals.push((1, vec![steps / 3, 2 * steps / 3], true));
    }
    // Tile body: a sliding window of loads and short arithmetic
    // temporaries, defs staggered over the schedule so pressure stays
    // roughly level.
    for k in 0..body {
        let def = 1 + (k as u32 * (steps - 3)) / body.max(1) as u32;
        let span = 2 + (k % 5) as u32;
        let last = (def + span).min(steps);
        let reads = if last > def + 1 {
            vec![def + 1, last]
        } else {
            vec![last.max(def + 1).min(steps)]
        };
        intervals.push((def, reads, false));
    }
    LifetimeTable::from_intervals(steps, intervals).expect("tile intervals are valid")
}

/// Generates a tiled loop-nest chain (see module docs).
///
/// # Panics
///
/// Panics if `vars_per_tile <= accumulators` or `steps < 8`.
pub fn loop_nest(cfg: &LoopNestConfig) -> BlockChain {
    assert!(cfg.vars_per_tile > cfg.accumulators, "tile needs body vars");
    assert!(cfg.steps >= 8, "tile needs a real schedule");
    let table = tile_table(cfg);
    let blocks = (0..cfg.tiles)
        .map(|i| {
            AllocationProblem::new(table.clone(), cfg.registers).with_activity(random_patterns(
                cfg.vars_per_tile,
                cfg.seed ^ (i as u64) << 17,
            ))
        })
        .collect();
    let links = (0..cfg.tiles - 1)
        .map(|_| {
            (0..cfg.accumulators)
                .map(|j| (VarId(j as u32), VarId(j as u32)))
                .collect()
        })
        .collect();
    BlockChain { blocks, links }
}

/// Parameters of the min-register scheduling-trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinRegTraceConfig {
    /// Blocks in the trace.
    pub blocks: usize,
    /// Values defined per block.
    pub vars_per_block: usize,
    /// Control steps per block.
    pub steps: u32,
    /// Base register budget; every third block gets a squeezed budget so
    /// boundary values spill to memory there.
    pub registers: u32,
    /// RNG seed (lifetime jitter and activity).
    pub seed: u64,
}

impl MinRegTraceConfig {
    /// 2k-value tier: 16 blocks × 128 values.
    pub fn tier_2k(seed: u64) -> Self {
        Self {
            blocks: 16,
            vars_per_block: 128,
            steps: 96,
            registers: 10,
            seed,
        }
    }
}

/// Generates a min-register scheduling trace: per-block distinct bursty
/// lifetimes, value 0 of each block handed to value 0 of the next, register
/// budgets alternating between ample and squeezed.
///
/// # Panics
///
/// Panics if `vars_per_block < 4`, `steps < 8`, or `registers < 2`.
pub fn min_reg_trace(cfg: &MinRegTraceConfig) -> BlockChain {
    assert!(cfg.vars_per_block >= 4 && cfg.steps >= 8 && cfg.registers >= 2);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let blocks = (0..cfg.blocks)
        .map(|i| {
            let mut intervals = Vec::with_capacity(cfg.vars_per_block);
            // The carried value: defined at entry, read once early, then a
            // long silent live-out tail — under a squeezed budget the
            // solver parks that tail in memory, spilling the boundary.
            intervals.push((1, vec![3], true));
            for _ in 1..cfg.vars_per_block {
                let def = rng.gen_range(1..cfg.steps - 1);
                let reach = rng.gen_range(1..=4).min(cfg.steps - def);
                intervals.push((def, vec![def + reach], false));
            }
            let table = LifetimeTable::from_intervals(cfg.steps, intervals)
                .expect("trace intervals are valid");
            let registers = if i % 3 == 2 { 2 } else { cfg.registers };
            AllocationProblem::new(table, registers).with_activity(random_patterns(
                cfg.vars_per_block,
                cfg.seed ^ (i as u64) << 9,
            ))
        })
        .collect();
    let links = (0..cfg.blocks - 1)
        .map(|_| vec![(VarId(0), VarId(0))])
        .collect();
    BlockChain { blocks, links }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemra_core::{
        allocate, allocate_program, allocate_program_with, AllocationReport, PipelineCx, Stage,
    };

    #[test]
    fn loop_nest_tiers_have_advertised_scale() {
        let cfg = LoopNestConfig::tier_4k(1);
        assert_eq!(cfg.total_vars(), 4096);
        assert_eq!(cfg.tiles, 32);
        let chain = loop_nest(&cfg);
        assert_eq!(chain.blocks.len(), 32);
        assert_eq!(chain.links.len(), 31);
        assert_eq!(chain.blocks[0].lifetimes.len(), 128);
    }

    #[test]
    fn loop_nest_is_deterministic_in_seed() {
        let a = loop_nest(&LoopNestConfig::tier_1k(5));
        let b = loop_nest(&LoopNestConfig::tier_1k(5));
        assert_eq!(format!("{:?}", a.blocks[3]), format!("{:?}", b.blocks[3]));
    }

    #[test]
    fn small_nest_reprices_one_network_per_tile() {
        let cfg = LoopNestConfig {
            tiles: 6,
            vars_per_tile: 24,
            accumulators: 4,
            steps: 20,
            registers: 6,
            seed: 9,
        };
        let chain = loop_nest(&cfg);
        let mut cx = PipelineCx::new();
        let program = allocate_program_with(&mut cx, &chain).unwrap();
        // One cold solve for the first tile. The second tile enters with
        // another boundary than the first, so it is re-priced and solved
        // again, warm; the four after it have its pricing inputs (they
        // differ only in activity, which the static model never reads) and
        // reuse its answer without a re-price. A silent fall-back to cold
        // solves fails here.
        assert_eq!(
            (cx.cold_solves(), cx.warm_solves(), cx.reused_answers()),
            (1, 1, 4)
        );
        // Build runs: the first tile's build, the second tile's re-price,
        // and one memory-reallocation network per tile.
        assert_eq!(cx.stats().stage(Stage::Build).runs, 1 + 1 + 6);
        for (problem, report) in program.chain.problems.iter().zip(&program.chain.reports) {
            let cold = allocate(problem).unwrap();
            assert_eq!(*report, AllocationReport::new(problem, &cold));
        }
    }

    #[test]
    fn min_reg_trace_spills_some_boundaries() {
        let cfg = MinRegTraceConfig {
            blocks: 9,
            vars_per_block: 16,
            steps: 12,
            registers: 4,
            seed: 2,
        };
        let chain = min_reg_trace(&cfg);
        let program = allocate_program(&chain).unwrap();
        assert_eq!(program.realloc.len(), 9);
        // At least one squeezed block forces a memory carry somewhere.
        let memory_carries: usize = program
            .chain
            .problems
            .iter()
            .map(|p| p.carried_in_memory.len())
            .sum();
        assert!(memory_carries > 0, "expected at least one spilled boundary");
    }
}
