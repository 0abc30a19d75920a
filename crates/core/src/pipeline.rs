//! The staged allocation pipeline.
//!
//! Every flow-backed computation in this crate is the same six steps:
//!
//! ```text
//! Segment → Profile → BuildNetwork → Solve → Bind → Validate
//! ```
//!
//! lifetimes are segmented (§5.2), the maximum-density regions are profiled
//! (§5.1/§7), the flow network is emitted, a min-cost flow of the target
//! value is solved, the flow is bound back to domain objects (register
//! chains, placements, addresses), and the result is structurally audited.
//! [`PipelineCx`] runs those stages with one owned context: the configured
//! [`Backend`], the warm-start [`Reoptimizer`] and its retained network for
//! sweeps, and per-stage timing/flow counters. The free functions
//! ([`allocate`](crate::allocate),
//! [`assign_memory_tiers`](crate::assign_memory_tiers),
//! [`reallocate_memory`](crate::reallocate_memory),
//! [`allocate_chain`](crate::allocate_chain),
//! [`synthesize`](crate::synthesize)) are thin wrappers that run a fresh
//! context; [`PipelineCx::allocate_warm`] retains the Solve stage across
//! the points of a sweep.
//!
//! Counters are always on: a handful of `Instant` reads per allocation is
//! below the benchmark noise. Contexts flush into a process-wide registry
//! on drop, which [`StatsSnapshot`](crate::StatsSnapshot) reads for the
//! drivers' `--timings` block.

use crate::allocator::{extract_allocation, flow_error, Allocation};
use crate::build::{build_with_regions, form_for, profile_regions, refresh, BuiltNetwork};
use crate::problem::{AllocationProblem, GraphStyle};
use crate::segment::{Segmentation, SplitOptions};
use crate::CoreError;
use lemra_energy::{EnergyModel, RegisterEnergyKind};
use lemra_ir::{ActivitySource, Tick, TickRange, VarId};
use lemra_netflow::{
    thread_solver_stats, Backend, FlowNetwork, FlowSolution, LemraConfig, NetflowError, NodeId,
    Reoptimizer, ResilientSolver, SolveBudget, SolverIncident, SolverStats,
};
use std::sync::Mutex;
use std::time::Instant;

/// One stage of the allocation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Lifetime segmentation (§5.2): split at multiple reads, restricted
    /// access times and manual cut points.
    Segment,
    /// Density profiling: the maximum-lifetime-density regions that gate
    /// hand-off arcs (§5.1/§7).
    Profile,
    /// Flow-network construction (§5.1), including re-pricing a retained
    /// network on warm sweep points.
    Build,
    /// The min-cost-flow solve itself.
    Solve,
    /// Binding the flow back to domain objects: path decomposition into
    /// chains, placements, left-edge addresses.
    Bind,
    /// Structural audit of the bound result ([`validate`](crate::validate)).
    Validate,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Segment,
        Stage::Profile,
        Stage::Build,
        Stage::Solve,
        Stage::Bind,
        Stage::Validate,
    ];

    /// Stable lower-case stage name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Segment => "segment",
            Stage::Profile => "profile",
            Stage::Build => "build",
            Stage::Solve => "solve",
            Stage::Bind => "bind",
            Stage::Validate => "validate",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated wall time, run count and peak heap footprint of one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Total nanoseconds spent in the stage.
    pub nanos: u64,
    /// Times the stage ran.
    pub runs: u64,
    /// Largest heap footprint (bytes, charged at buffer capacity) any one
    /// run of the stage retained — currently reported by the Build stage,
    /// whose counted two-pass construction makes capacity equal the exact
    /// result size. Zero for stages that don't report.
    pub bytes: u64,
}

impl StageTiming {
    const ZERO: StageTiming = StageTiming {
        nanos: 0,
        runs: 0,
        bytes: 0,
    };
}

/// Per-stage timings plus solver counters of one pipeline context (or, via
/// [`StatsSnapshot`](crate::StatsSnapshot), of every context the process
/// has dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    stages: [StageTiming; 6],
    /// Dijkstra rounds run and flow units pushed by the SSP-family solvers.
    pub solver: SolverStats,
    /// Solves answered from the reoptimizer's retained residual state.
    pub warm_solves: u64,
    /// Solves that (re)built solver state from scratch — cold pipeline
    /// solves and reoptimizer rebuilds alike.
    pub cold_solves: u64,
    /// Warm points answered with the retained allocation because their
    /// network came out of the re-price unchanged: neither a warm nor a
    /// cold solve, since no Solve or Bind stage ran.
    pub reused_answers: u64,
}

impl PipelineStats {
    const ZERO: PipelineStats = PipelineStats {
        stages: [StageTiming::ZERO; 6],
        solver: SolverStats {
            dijkstra_rounds: 0,
            pushed_units: 0,
            settled_nodes: 0,
            incidents: 0,
        },
        warm_solves: 0,
        cold_solves: 0,
        reused_answers: 0,
    };

    /// Timing of one stage.
    pub fn stage(&self, stage: Stage) -> StageTiming {
        self.stages[stage.index()]
    }

    /// Total wall time across all stages, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    fn merge(&mut self, other: &PipelineStats) {
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.nanos += theirs.nanos;
            mine.runs += theirs.runs;
            // Peak, not sum: the merged figure answers "how big did any one
            // build get", the same question a single context's counter does.
            mine.bytes = mine.bytes.max(theirs.bytes);
        }
        self.solver = self.solver + other.solver;
        self.warm_solves += other.warm_solves;
        self.cold_solves += other.cold_solves;
        self.reused_answers += other.reused_answers;
    }
}

static GLOBAL_STATS: Mutex<PipelineStats> = Mutex::new(PipelineStats::ZERO);

/// The process-wide aggregate of every dropped [`PipelineCx`] — what the
/// drivers print behind their `--timings` flag.
pub(crate) fn pipeline_stats() -> PipelineStats {
    *GLOBAL_STATS.lock().expect("stats registry poisoned")
}

/// The retained network of a warm pipeline plus the problem fields it is
/// valid for. Only *topology-affecting* fields participate in the match:
/// lifetimes and split determine the segmentation, style and relief arcs
/// select the arc set, and register-carried variables gate their first
/// segments' hand-offs and source hooks. The register-energy kind and the
/// activity source decide whether hand-off costs split per endpoint, which
/// picks the [`NetworkForm`](crate::NetworkForm) on networks past the gate
/// ([`form_for`]); beyond that, registers, energies and activity only move
/// costs and the bypass and tick capacities, which [`refresh`] re-prices.
///
/// `priced_for` holds the pricing inputs the network's costs and
/// capacities were last computed from, and `answer` the validated
/// allocation last bound from it for those inputs' memory-carried set (the
/// one Bind input the topology fields do not pin). A point with the same
/// pricing inputs, or one that re-prices to the same network and carries
/// the same set, gets that allocation back without a solve.
#[derive(Debug)]
struct RetainedNetwork {
    lifetimes: lemra_ir::LifetimeTable,
    split: SplitOptions,
    style: GraphStyle,
    relief_arcs: bool,
    carried_in_register: Vec<VarId>,
    segmentation: Segmentation,
    built: BuiltNetwork,
    priced_for: PricingInputs,
    answer: Option<Allocation>,
}

impl RetainedNetwork {
    fn covers(&self, problem: &AllocationProblem) -> bool {
        self.lifetimes == problem.lifetimes
            && self.split == problem.split
            && self.style == problem.style
            && self.relief_arcs == problem.relief_arcs
            && self.carried_in_register == problem.carried_in_register
            && self.built.form == form_for(problem, self.built.window_pairs)
    }
}

/// What re-pricing a covered network reads from a problem: the fields the
/// cost calculator and the bypass capacity take, less the register-carried
/// set, which [`RetainedNetwork::covers`] already pins.
#[derive(Debug)]
struct PricingInputs {
    energy: EnergyModel,
    register_energy: RegisterEnergyKind,
    registers: u32,
    carried_in_memory: Vec<VarId>,
    /// Kept under the activity model only: static pricing never reads it,
    /// so tiles that differ only in activity share one pricing.
    activity: Option<ActivitySource>,
}

impl PricingInputs {
    fn of(problem: &AllocationProblem) -> Self {
        Self {
            energy: problem.energy.clone(),
            register_energy: problem.register_energy,
            registers: problem.registers,
            carried_in_memory: problem.carried_in_memory.clone(),
            activity: (problem.register_energy == RegisterEnergyKind::Activity)
                .then(|| problem.activity.clone()),
        }
    }

    fn matches(&self, problem: &AllocationProblem) -> bool {
        self.energy == problem.energy
            && self.register_energy == problem.register_energy
            && self.registers == problem.registers
            && self.carried_in_memory == problem.carried_in_memory
            && self
                .activity
                .as_ref()
                .is_none_or(|activity| *activity == problem.activity)
    }
}

/// One run of the staged allocation pipeline: owns the backend choice, the
/// warm-start state and the per-stage counters.
///
/// A fresh context is cheap (no allocation until a stage runs); the plain
/// entry points create one per call. Hold a context across calls to get
/// warm-start reuse ([`PipelineCx::allocate_warm`]) and cumulative stats.
///
/// # Examples
///
/// ```
/// use lemra_core::{AllocationProblem, PipelineCx};
/// use lemra_ir::LifetimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lifetimes =
///     LifetimeTable::from_intervals(5, vec![(1, vec![3], false), (3, vec![5], false)])?;
/// let mut cx = PipelineCx::new();
/// let allocation = cx.allocate(&AllocationProblem::new(lifetimes, 1))?;
/// assert_eq!(allocation.registers_used(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PipelineCx {
    backend: Backend,
    reopt: Reoptimizer,
    resilient: ResilientSolver,
    /// `(cost_scale, cost_unit, raw memory-read energy, raw register
    /// energy)` of the previous warm point: when the tie-break encoding or
    /// an operating point shifts between points, the reoptimizer's retained
    /// potentials are rescaled per arc class so they track the new costs'
    /// magnitudes instead of certifying last point's. Memory and register
    /// terms derate independently (distinct supply voltages), hence the two
    /// energy entries.
    prev_basis: Option<(i64, i64, i64, i64)>,
    retained: Option<RetainedNetwork>,
    stats: PipelineStats,
}

impl Default for PipelineCx {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PipelineCx {
    fn drop(&mut self) {
        // Every context flushes, also while a panicking request unwinds, so
        // this must not panic: a poisoned registry loses these counters.
        if self.stats != PipelineStats::ZERO {
            if let Ok(mut global) = GLOBAL_STATS.lock() {
                global.merge(&self.stats);
            }
        }
    }
}

impl PipelineCx {
    /// A context solving with the process-wide [`LemraConfig`] snapshot's
    /// backend.
    pub fn new() -> Self {
        Self::with_backend(LemraConfig::get().backend)
    }

    /// A context with an explicit backend. Tests use this to pin one
    /// without mutating the process-wide config snapshot.
    pub fn with_backend(backend: Backend) -> Self {
        Self {
            backend,
            reopt: Reoptimizer::new(),
            resilient: ResilientSolver::new(backend),
            prev_basis: None,
            retained: None,
            stats: PipelineStats::ZERO,
        }
    }

    /// The backend this context solves with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// A fresh context with this one's backend but none of its state. The
    /// allocation server forks one context per worker thread (and re-forks
    /// after containing a panicked request); each fork's counters flush to
    /// the process-wide registry when it drops, like any other context.
    pub fn fork(&self) -> Self {
        Self::with_backend(self.backend)
    }

    /// This context's accumulated stage timings and solver counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Warm-start solves answered from retained residual state.
    pub fn warm_solves(&self) -> u64 {
        self.reopt.warm_solves()
    }

    /// Warm-path solves that had to (re)build solver state from scratch.
    pub fn cold_solves(&self) -> u64 {
        self.reopt.cold_solves()
    }

    /// Warm points answered with the retained allocation, without a Solve
    /// or Bind stage ([`Self::allocate_warm`]).
    pub fn reused_answers(&self) -> u64 {
        self.stats.reused_answers
    }

    /// Cumulative effort counters of the warm-start engine's retained
    /// workspace, with this context's absorbed-incident count folded into
    /// [`SolverStats::incidents`]. Diff snapshots to scope them: the
    /// `pushed_units` delta across a run of warm points is the flow the
    /// repairs actually moved — drained excess plus cancelled cycles.
    pub fn solver_stats(&self) -> SolverStats {
        let mut stats = self.reopt.stats();
        stats.incidents += self.resilient.incident_count();
        stats
    }

    /// Every solver failure this context absorbed via its fallback chain
    /// (budget exhaustion, overflow guards, contained panics), oldest
    /// first. A non-empty log means some points were answered by a
    /// fallback backend — still optimal, but without warm-start reuse.
    pub fn incidents(&self) -> &[SolverIncident] {
        self.resilient.incidents()
    }

    /// Number of solver failures absorbed via the fallback chain.
    pub fn incident_count(&self) -> u64 {
        self.resilient.incident_count()
    }

    /// Installs a [`SolveBudget`] applied to every subsequent solve attempt
    /// (each link of the fallback chain gets the full budget), returning
    /// the previous one.
    pub fn set_solve_budget(&mut self, budget: SolveBudget) -> SolveBudget {
        self.resilient.set_budget(budget)
    }

    fn record(&mut self, stage: Stage, started: Instant) {
        let slot = &mut self.stats.stages[stage.index()];
        slot.nanos += started.elapsed().as_nanos() as u64;
        slot.runs += 1;
    }

    /// Folds one run's retained heap footprint into the stage's peak-bytes
    /// counter. Callers compute `bytes` from buffer capacities, with no
    /// allocator interrogation.
    fn record_bytes(&mut self, stage: Stage, bytes: usize) {
        let slot = &mut self.stats.stages[stage.index()];
        slot.bytes = slot.bytes.max(bytes as u64);
    }

    // ---- the individual stages -------------------------------------------

    /// Segment stage: lifetime segmentation per §5.2.
    fn segment(&mut self, problem: &AllocationProblem) -> Segmentation {
        let t0 = Instant::now();
        let segmentation = Segmentation::new(&problem.lifetimes, &problem.split);
        self.record(Stage::Segment, t0);
        segmentation
    }

    /// Profile stage: maximum-density regions for the hand-off rule.
    fn profile(
        &mut self,
        problem: &AllocationProblem,
        segmentation: &Segmentation,
    ) -> Vec<TickRange> {
        let t0 = Instant::now();
        let regions = profile_regions(problem, segmentation);
        self.record(Stage::Profile, t0);
        regions
    }

    /// BuildNetwork stage: emit the §5.1 network.
    fn build(
        &mut self,
        problem: &AllocationProblem,
        segmentation: &Segmentation,
        regions: &[TickRange],
    ) -> Result<BuiltNetwork, CoreError> {
        let t0 = Instant::now();
        let built = build_with_regions(problem, segmentation, regions, None);
        self.record(Stage::Build, t0);
        if let Ok(b) = &built {
            self.record_bytes(Stage::Build, b.heap_bytes());
        }
        built
    }

    /// Bind stage: path-decompose the flow into chains and placements.
    fn bind(
        &mut self,
        problem: &AllocationProblem,
        segmentation: Segmentation,
        built: &BuiltNetwork,
        solution: &FlowSolution,
    ) -> Result<Allocation, CoreError> {
        let t0 = Instant::now();
        let allocation = extract_allocation(problem, segmentation, built, solution)?;
        self.record(Stage::Bind, t0);
        Ok(allocation)
    }

    /// Validate stage: structural audit of the bound result.
    fn validate(
        &mut self,
        problem: &AllocationProblem,
        allocation: &Allocation,
    ) -> Result<(), CoreError> {
        let t0 = Instant::now();
        crate::validate(problem, allocation)?;
        self.record(Stage::Validate, t0);
        Ok(())
    }

    /// Solve stage, cold: one solve through the configured backend's
    /// fallback chain. The context's own sweep reoptimizer is never
    /// touched, so [`Self::allocate_warm`]'s intra-sweep state cannot be
    /// clobbered by an unrelated chain-flow or block solve.
    ///
    /// Public so callers holding a raw built network (external drivers
    /// composing their own Build stage) can solve it with this context's
    /// backend, fallback chain and counters.
    ///
    /// # Errors
    ///
    /// Same as a cold solve through the configured backend's fallback
    /// chain: infeasibility, invalid endpoints, budget exhaustion.
    pub fn solve(
        &mut self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: i64,
    ) -> Result<FlowSolution, NetflowError> {
        let t0 = Instant::now();
        let incidents = self.resilient.incident_count();
        let before = thread_solver_stats();
        let result = self.resilient.solve(net, s, t, target);
        self.stats.solver = self.stats.solver + (thread_solver_stats() - before);
        self.stats.cold_solves += 1;
        self.stats.solver.incidents += self.resilient.incident_count() - incidents;
        self.record(Stage::Solve, t0);
        result
    }

    /// Solve stage, warm: the retained path of [`Self::allocate_warm`].
    /// Applies the point's rescale hint, then solves `built` for the
    /// problem's register count on this context's own reoptimizer, with
    /// the fallback chain behind it.
    fn solve_warm(
        &mut self,
        problem: &AllocationProblem,
        built: &BuiltNetwork,
    ) -> Result<FlowSolution, NetflowError> {
        self.rescale_hint(problem, built);
        let t0 = Instant::now();
        let incidents = self.resilient.incident_count();
        let reopt = &mut self.reopt;
        let (stats, warm, cold) = (reopt.stats(), reopt.warm_solves(), reopt.cold_solves());
        let target = i64::from(problem.registers);
        let result = self
            .resilient
            .solve_with_fallback(reopt, &built.net, built.s, built.t, target);
        if self.resilient.incident_count() > incidents {
            // The warm primary failed mid-solve (possibly mid-mutation
            // after a contained panic): drop its state and the rescale
            // basis rather than reuse them. The returned solution, if
            // any, came from a stateless fallback backend.
            reopt.reset();
            self.prev_basis = None;
        }
        self.stats.solver = self.stats.solver + (reopt.stats() - stats);
        self.stats.warm_solves += reopt.warm_solves() - warm;
        self.stats.cold_solves += reopt.cold_solves() - cold;
        self.stats.solver.incidents += self.resilient.incident_count() - incidents;
        self.record(Stage::Solve, t0);
        result
    }

    /// Hints the sweep's reoptimizer when the tie-break encoding or an
    /// operating point moved since the previous point.
    ///
    /// Solver-unit costs are raw energies times scale/unit. The raw
    /// energies split by arc class: chain, sink, segment and bypass costs
    /// are pure memory-access deltas that derate with the memory voltage,
    /// while hand-off and source arcs also carry the register (Hamming or
    /// static access) term, which follows the register voltage instead.
    /// When any factor moves, a per-class ratio lets the retained
    /// potentials jump with their local costs, keeping the repair
    /// incremental; the repair absorbs whatever residue the class
    /// approximation leaves.
    fn rescale_hint(&mut self, problem: &AllocationProblem, built: &BuiltNetwork) {
        let mem = problem.energy.e_mem_read().raw();
        let reg = match problem.register_energy {
            // Half the bits of the 16-bit word switch — the paper's own
            // time-zero assumption — as the representative overwrite.
            RegisterEnergyKind::Activity => problem.energy.e_reg_activity(8.0).raw(),
            RegisterEnergyKind::Static => {
                (problem.energy.e_reg_write() + problem.energy.e_reg_read()).raw()
            }
        };
        let basis = (built.cost_scale, built.cost_unit, mem, reg);
        let Some((prev_scale, prev_unit, prev_mem, prev_reg)) = self.prev_basis.replace(basis)
        else {
            return;
        };
        if (prev_scale, prev_unit, prev_mem, prev_reg) == basis || prev_mem <= 0 || mem <= 0 {
            return;
        }
        let base = (built.cost_scale as f64 * prev_unit as f64)
            / (prev_scale as f64 * built.cost_unit as f64);
        let mem_ratio = base * mem as f64 / prev_mem as f64;
        let reg_ratio = if prev_reg > 0 && reg > 0 {
            base * reg as f64 / prev_reg as f64
        } else {
            mem_ratio
        };
        // Mixed-class arcs blend the two ratios by the energy magnitudes
        // behind each part: roughly two memory terms (exit + enter) against
        // one register term.
        let mixed = (2.0 * prev_mem as f64 * mem_ratio + prev_reg as f64 * reg_ratio)
            / (2.0 * prev_mem as f64 + prev_reg as f64);
        let mut ratio = vec![mem_ratio; built.net.arc_count()];
        let hooks = built.exit_of.iter().chain(&built.enter_of);
        let handoffs = built.handoff_of.iter().map(|&(arc, _, _)| arc);
        for arc in handoffs.chain(hooks.chain(&built.source_of).map(|&(arc, _)| arc)) {
            ratio[arc.index()] = mixed;
        }
        // The reoptimizer queries by *snapshot* arc index; after a topology
        // change its retained snapshot can be larger than the current
        // network (the solve falls back cold), so out-of-table arcs get an
        // unusable entry rather than a panic.
        self.reopt
            .costs_rescaled_per_arc(|i| ratio.get(i).copied().unwrap_or(f64::NAN));
    }

    // ---- composed runs ---------------------------------------------------

    /// Runs the full cold pipeline for one problem — exactly what the free
    /// [`allocate`](crate::allocate) does, with this context's backend and
    /// counters.
    ///
    /// # Errors
    ///
    /// Same as [`allocate`](crate::allocate).
    pub fn allocate(&mut self, problem: &AllocationProblem) -> Result<Allocation, CoreError> {
        let segmentation = self.segment(problem);
        let regions = self.profile(problem, &segmentation);
        let built = self.build(problem, &segmentation, &regions)?;
        let solution = self
            .solve(&built.net, built.s, built.t, i64::from(problem.registers))
            .map_err(|e| flow_error(problem, e))?;
        let allocation = self.bind(problem, segmentation, &built, &solution)?;
        self.validate(problem, &allocation)?;
        Ok(allocation)
    }

    /// [`allocate`](crate::allocate) for parameter sweeps: the pipeline
    /// with a **retained** Solve stage.
    ///
    /// The network builder is deterministic (see
    /// [`NetworkView`](crate::NetworkView)), so two problems over the same
    /// lifetime table produce networks differing only in arc costs and
    /// capacities. Each call ends in one of three ways:
    ///
    /// * **Reuse.** The point has the previous point's topology and the
    ///   retained network is already priced for it (a repeated loop tile).
    ///   Before any arc is priced, the point's pricing inputs are compared
    ///   with those the network was priced from: the energy model, the
    ///   register-energy kind, the register count, the memory-carried set,
    ///   and, under the activity model only, the activity source. When
    ///   they are equal nothing is re-priced. When they differ, the network
    ///   is re-priced, and a point whose arc costs and register count come
    ///   out equal to the retained network's and that carries the same
    ///   variables in memory is unchanged too. Either way the previous
    ///   allocation is returned after the Validate stage; no Solve or Bind
    ///   stage runs.
    /// * **Warm repair.** Same topology, other costs or capacities: the
    ///   retained network is re-priced in place and the previous optimum
    ///   repaired instead of re-solved.
    /// * **Cold rebuild.** The topology changed (a different access period,
    ///   lifetime table, split set or register-carried set): the network is
    ///   rebuilt and solved cold, so one context can drive any sweep; it
    ///   just only pays off on the topology-stable ones.
    ///
    /// Every call returns exactly what [`allocate`](crate::allocate)
    /// would: the solver repairs the optimal basis, not an approximation of
    /// it, and certifies its optimality before answering. The tie-break
    /// makes that optimum unique and Bind is a pure function of the
    /// network, the segmentation and the carried sets, so a reused answer
    /// is the same allocation too.
    ///
    /// # Examples
    ///
    /// ```
    /// use lemra_core::{allocate, AllocationProblem, PipelineCx};
    /// use lemra_energy::EnergyModel;
    /// use lemra_ir::LifetimeTable;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let lifetimes =
    ///     LifetimeTable::from_intervals(5, vec![(1, vec![3], false), (3, vec![5], false)])?;
    /// let mut sweep = PipelineCx::new();
    /// for millivolts in [3300, 2500, 1800] {
    ///     let problem = AllocationProblem::new(lifetimes.clone(), 1)
    ///         .with_energy(EnergyModel::default_16bit().with_memory_voltage(millivolts as f64 / 1000.0));
    ///     let warm = sweep.allocate_warm(&problem)?;
    ///     assert_eq!(warm.flow_cost(), allocate(&problem)?.flow_cost());
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`allocate`](crate::allocate).
    pub fn allocate_warm(&mut self, problem: &AllocationProblem) -> Result<Allocation, CoreError> {
        // Re-price the retained network in place when the topology carries
        // over from the previous point and its pricing inputs changed;
        // rebuild when the topology changed. A network that does not cover
        // the point is dropped before the rebuild, so the new one reuses its
        // memory.
        let mut retained = match self.retained.take().filter(|r| r.covers(problem)) {
            Some(mut retained) => {
                if !retained.priced_for.matches(problem) {
                    let t0 = Instant::now();
                    let repriced = refresh(problem, &retained.segmentation, &mut retained.built)?;
                    self.record(Stage::Build, t0);
                    self.record_bytes(Stage::Build, retained.built.heap_bytes());
                    // A changed network, or another memory-carried set
                    // (which Bind reads), makes the retained answer stale.
                    if repriced
                        || retained.priced_for.carried_in_memory != problem.carried_in_memory
                    {
                        retained.answer = None;
                    }
                    retained.priced_for = PricingInputs::of(problem);
                }
                if let Some(allocation) = retained.answer.clone() {
                    self.retained = Some(retained);
                    self.validate(problem, &allocation)?;
                    self.stats.reused_answers += 1;
                    return Ok(allocation);
                }
                retained
            }
            None => {
                // A new topology: the reoptimizer's retained potentials
                // describe another network, so a rescale hint would be
                // wasted work.
                self.prev_basis = None;
                let segmentation = self.segment(problem);
                let regions = self.profile(problem, &segmentation);
                let built = self.build(problem, &segmentation, &regions)?;
                RetainedNetwork {
                    lifetimes: problem.lifetimes.clone(),
                    split: problem.split.clone(),
                    style: problem.style,
                    relief_arcs: problem.relief_arcs,
                    carried_in_register: problem.carried_in_register.clone(),
                    segmentation,
                    built,
                    priced_for: PricingInputs::of(problem),
                    answer: None,
                }
            }
        };
        let built = &retained.built;
        let allocation = self
            .solve_warm(problem, built)
            .map_err(|e| flow_error(problem, e))
            .and_then(|solution| {
                self.bind(problem, retained.segmentation.clone(), built, &solution)
            })
            .and_then(|allocation| {
                self.validate(problem, &allocation)?;
                Ok(allocation)
            });
        retained.answer = allocation.as_ref().ok().cloned();
        self.retained = Some(retained);
        allocation
    }
}

// ---- the shared interval-chain flow --------------------------------------

/// A family of time-intervaled items to be chained through storage
/// locations by a min-cost flow — the shape shared by the off-chip tier
/// assignment ([`assign_memory_tiers`](crate::assign_memory_tiers)) and the
/// second-stage memory re-allocation
/// ([`reallocate_memory`](crate::reallocate_memory)): one `w → r` node pair
/// per item, hand-off arcs between temporally compatible items, a zero-cost
/// bypass, and a flow of exactly `capacity` units.
pub(crate) struct ChainFlowSpec<'a> {
    /// Residency interval per item; item `i` can hand its location to `j`
    /// iff `intervals[i].1 < intervals[j].0`.
    pub intervals: &'a [(Tick, Tick)],
    /// Cost on item `i`'s `w → r` arc (e.g. the negated on-chip saving).
    pub item_cost: &'a [i64],
    /// Cost of starting a chain at item `i` (the `s → w` hook-up).
    pub source_cost: &'a [i64],
    /// Cost of handing a location from item `i` to item `j`.
    pub handoff_cost: &'a dyn Fn(usize, usize) -> i64,
    /// When true, every item *must* be chained (unit lower bound on its
    /// arc); when false, the flow selects the profitable subset.
    pub required: bool,
    /// Locations available: the flow value and the bypass capacity.
    pub capacity: u32,
}

/// Chains extracted from a solved [`ChainFlowSpec`].
pub(crate) struct ChainFlowOutcome {
    /// Items per chain, in hand-off order; the chain index is the storage
    /// address. Items absent from every chain were left unselected.
    pub chains: Vec<Vec<usize>>,
}

/// Builds, solves and binds one interval-chain flow on `cx`.
pub(crate) fn solve_chain_flow(
    cx: &mut PipelineCx,
    spec: &ChainFlowSpec<'_>,
) -> Result<ChainFlowOutcome, CoreError> {
    let n = spec.intervals.len();
    debug_assert_eq!(spec.item_cost.len(), n);
    debug_assert_eq!(spec.source_cost.len(), n);

    let t0 = Instant::now();
    // Enumerate hand-off pairs up front: their count sets the tie-break
    // scale below.
    let mut pairs: Vec<(usize, usize, i64)> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && spec.intervals[i].1 < spec.intervals[j].0 {
                pairs.push((i, j, (spec.handoff_cost)(i, j)));
            }
        }
    }
    // Equal-raw-cost optima must resolve the same way on every backend —
    // and toward maximal chaining (fewest storage locations), like the main
    // network's preferred-arc bias: scale raw costs by one more than the
    // total available hand-off bonus and discount each hand-off arc by one.
    // A one-quantum raw gap then still dominates any bonus sum. Skipped
    // (scale 1, no bias) if the scaled cost mass could overflow.
    let raw_mass = spec
        .item_cost
        .iter()
        .chain(spec.source_cost)
        .map(|c| c.abs())
        .chain(pairs.iter().map(|&(_, _, c)| c.abs()))
        .fold(0i64, i64::saturating_add);
    let candidate = pairs.len() as i64 + 1;
    let scale = match raw_mass.checked_mul(candidate) {
        Some(mass) if mass < i64::MAX / 8 => candidate,
        _ => 1,
    };
    let bias = i64::from(scale > 1);

    let mut net = FlowNetwork::new();
    let s = net.add_node();
    let t = net.add_node();
    let mut item_arc = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let w = net.add_node();
        let r = net.add_node();
        item_arc.push(net.add_arc_bounded(
            w,
            r,
            i64::from(spec.required),
            1,
            spec.item_cost[i] * scale,
        )?);
        net.add_arc(s, w, 1, spec.source_cost[i] * scale)?;
        net.add_arc(r, t, 1, 0)?;
        nodes.push((w, r));
    }
    let mut handoffs: Vec<(lemra_netflow::ArcId, usize, usize)> = Vec::new();
    for &(i, j, cost) in &pairs {
        let arc = net.add_arc(nodes[i].1, nodes[j].0, 1, cost * scale - bias)?;
        handoffs.push((arc, i, j));
    }
    net.add_arc(s, t, i64::from(spec.capacity), 0)?;
    cx.record(Stage::Build, t0);
    cx.record_bytes(Stage::Build, net.heap_bytes());

    let sol = cx
        .solve(&net, s, t, i64::from(spec.capacity))
        .map_err(|e| match e {
            NetflowError::Infeasible { required, achieved } => CoreError::TooFewRegisters {
                registers: spec.capacity,
                shortfall: required - achieved,
            },
            other => CoreError::Flow(other),
        })?;

    let t0 = Instant::now();
    let mut successor: Vec<Option<usize>> = vec![None; n];
    let mut has_pred = vec![false; n];
    for &(arc, i, j) in &handoffs {
        if sol.flow(arc) == 1 {
            successor[i] = Some(j);
            has_pred[j] = true;
        }
    }
    let selected: Vec<bool> = item_arc.iter().map(|&a| sol.flow(a) == 1).collect();
    let mut chains = Vec::new();
    for start in 0..n {
        if !selected[start] || has_pred[start] {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = Some(start);
        while let Some(i) = cur {
            debug_assert!(selected[i], "flow chains only visit selected items");
            chain.push(i);
            cur = successor[i];
        }
        chains.push(chain);
    }
    cx.record(Stage::Bind, t0);
    Ok(ChainFlowOutcome { chains })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemra_ir::LifetimeTable;

    fn problem() -> AllocationProblem {
        let table =
            LifetimeTable::from_intervals(6, vec![(1, vec![3], false), (3, vec![6], false)])
                .unwrap();
        AllocationProblem::new(table, 1)
    }

    #[test]
    fn staged_run_matches_free_allocate() {
        let p = problem();
        let mut cx = PipelineCx::new();
        let staged = cx.allocate(&p).unwrap();
        let free = crate::allocate(&p).unwrap();
        assert_eq!(staged.placements(), free.placements());
        assert_eq!(staged.flow_cost(), free.flow_cost());
    }

    #[test]
    fn every_backend_allocates_identically() {
        // The tie-break transform makes the optimum unique, so all four
        // algorithms must commit the same placements, not just the same
        // objective.
        let p = problem();
        let reference = crate::allocate(&p).unwrap();
        for backend in Backend::ALL.into_iter().chain([Backend::Auto]) {
            let mut cx = PipelineCx::with_backend(backend);
            assert_eq!(cx.backend(), backend);
            let a = cx.allocate(&p).unwrap();
            assert_eq!(a.placements(), reference.placements(), "{backend}");
            assert_eq!(a.chains(), reference.chains(), "{backend}");
            assert_eq!(a.flow_cost(), reference.flow_cost(), "{backend}");
        }
    }

    #[test]
    fn warm_context_matches_cold_across_points() {
        use lemra_energy::EnergyModel;
        let table =
            LifetimeTable::from_intervals(6, vec![(1, vec![3], false), (3, vec![6], false)])
                .unwrap();
        let mut cx = PipelineCx::new();
        for (volts, regs) in [(3.3, 1u32), (2.4, 1), (1.8, 2)] {
            let p = AllocationProblem::new(table.clone(), regs)
                .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts));
            let warm = cx.allocate_warm(&p).unwrap();
            let cold = crate::allocate(&p).unwrap();
            assert_eq!(warm.placements(), cold.placements());
            assert_eq!(warm.flow_cost(), cold.flow_cost());
        }
        assert!(cx.warm_solves() >= 1);
    }

    #[test]
    fn stats_are_recorded_by_default() {
        // No switch turns the counters on: one allocate runs and times
        // every stage it passes through and sizes the built network.
        let p = problem();
        let mut cx = PipelineCx::new();
        cx.allocate(&p).unwrap();
        let stats = cx.stats();
        for stage in [
            Stage::Segment,
            Stage::Profile,
            Stage::Build,
            Stage::Solve,
            Stage::Bind,
            Stage::Validate,
        ] {
            assert_eq!(stats.stage(stage).runs, 1, "{stage}");
        }
        assert!(stats.stage(Stage::Build).bytes > 0);
        assert_eq!(stats.cold_solves, 1);

        // A three-point voltage sweep builds solver state once and repairs
        // it twice.
        use lemra_energy::EnergyModel;
        let mut sweep = PipelineCx::new();
        for volts in [3.3, 2.4, 1.8] {
            let point =
                problem().with_energy(EnergyModel::default_16bit().with_memory_voltage(volts));
            sweep.allocate_warm(&point).unwrap();
        }
        assert_eq!(sweep.stats().cold_solves, 1);
        assert_eq!(sweep.stats().warm_solves, 2);
        assert_eq!(sweep.stats().stage(Stage::Solve).runs, 3);
    }

    /// A three-variable tile under the activity model with a pair-table
    /// source whose `(0, 1)` entry prices the one hand-off from variable
    /// 0's read into variable 1's write.
    fn tile(hamming: f64) -> AllocationProblem {
        let table = LifetimeTable::from_intervals(
            9,
            vec![
                (1, vec![3], false),
                (4, vec![7], false),
                (2, vec![9], false),
            ],
        )
        .unwrap();
        AllocationProblem::new(table, 1)
            .with_register_energy(RegisterEnergyKind::Activity)
            .with_activity(lemra_ir::ActivitySource::from_pairs([(
                VarId(0),
                VarId(1),
                hamming,
            )]))
    }

    /// Runs `first` then `second` on one warm context and checks the second
    /// answer against a cold [`allocate`](crate::allocate): returns it with
    /// the Build runs (re-prices) the second point added, the number of
    /// reused answers, and the Solve and Bind runs the second point added.
    fn second_point(
        first: &AllocationProblem,
        second: &AllocationProblem,
    ) -> (Allocation, u64, (u64, u64, u64)) {
        let mut cx = PipelineCx::new();
        cx.allocate_warm(first).unwrap();
        let before = cx.stats();
        let answer = cx.allocate_warm(second).unwrap();
        let after = cx.stats();
        let runs = |stage| after.stage(stage).runs - before.stage(stage).runs;
        assert_eq!(runs(Stage::Validate), 1, "the answer is validated");
        let cold = crate::allocate(second).unwrap();
        assert_eq!(format!("{answer:?}"), format!("{cold:?}"));
        let reused = cx.reused_answers();
        (
            answer,
            runs(Stage::Build),
            (reused, runs(Stage::Solve), runs(Stage::Bind)),
        )
    }

    #[test]
    fn an_unchanged_point_reuses_the_retained_answer() {
        // The same pricing inputs: nothing is re-priced.
        let p = tile(0.2);
        let (_, builds, outcome) = second_point(&p, &p.clone());
        assert_eq!((builds, outcome), (0, (1, 0, 0)));
        // A point built from other values that price the network the same
        // way is unchanged too: its inputs differ, so it is re-priced, but
        // the reuse test compares arc costs, not problem fields.
        let mut same_costs = tile(0.2);
        same_costs.energy.mem_read += 1e-12;
        assert_ne!(same_costs.energy, p.energy);
        let (_, builds, outcome) = second_point(&p, &same_costs);
        assert_eq!((builds, outcome), (1, (1, 0, 0)));
    }

    #[test]
    fn a_changed_point_solves_and_binds_again() {
        let base = tile(0.2);
        let mut more_registers = base.clone();
        more_registers.registers = 2;
        let in_memory = base.clone().with_carried_in_memory(VarId(2));
        let lower_voltage = base
            .clone()
            .with_energy(lemra_energy::EnergyModel::default_16bit().with_memory_voltage(2.5));
        for (what, changed) in [
            ("one arc cost", tile(0.7)),
            ("energy model", lower_voltage),
            ("register count", more_registers),
            ("memory-carried set", in_memory),
        ] {
            let (_, builds, outcome) = second_point(&base, &changed);
            assert_eq!((builds, outcome), (1, (0, 1, 1)), "{what}");
        }
    }

    /// [`tile`] with an explicit pair-table source: `H(0, 1) = hamming`
    /// and `initial` for every first write.
    fn tile_with(kind: RegisterEnergyKind, hamming: f64, initial: f64) -> AllocationProblem {
        let mut p = tile(hamming).with_register_energy(kind);
        p.activity = lemra_ir::ActivitySource::PairTable {
            table: [((VarId(0), VarId(1)), hamming)].into_iter().collect(),
            default: 0.5,
            initial,
        };
        p
    }

    #[test]
    fn a_static_tile_with_other_activity_is_not_repriced() {
        // The static model never reads the activity source, so a tile that
        // differs from its predecessor only there keeps the retained
        // pricing and answer. Its report still reads its own activity.
        let first = tile_with(RegisterEnergyKind::Static, 0.2, 0.5);
        let second = tile_with(RegisterEnergyKind::Static, 0.9, 0.25);
        let (answer, builds, outcome) = second_point(&first, &second);
        assert_eq!((builds, outcome), (0, (1, 0, 0)));
        let switching = |p: &AllocationProblem, a: &Allocation| {
            let r = crate::AllocationReport::new(p, a);
            [r.register_switching, r.memory_switching, r.activity_energy].map(f64::to_bits)
        };
        let cold = crate::allocate(&second).unwrap();
        let before = crate::allocate(&first).unwrap();
        let report = switching(&second, &answer);
        assert_eq!(report, switching(&second, &cold));
        let previous = switching(&first, &before);
        assert!(report.iter().zip(&previous).all(|(a, b)| a != b));
    }

    #[test]
    fn an_activity_tile_compares_its_activity_source() {
        let first = tile_with(RegisterEnergyKind::Activity, 0.2, 0.5);
        // Another Hamming distance on the one hand-off arc: re-priced and
        // solved again.
        let other_cost = tile_with(RegisterEnergyKind::Activity, 0.7, 0.5);
        let (_, builds, outcome) = second_point(&first, &other_cost);
        assert_eq!((builds, outcome), (1, (0, 1, 1)));
        // An entry for a pair with no hand-off arc (variables 0 and 2
        // overlap): the source differs, so the point is re-priced, but
        // every arc cost comes out the same and the answer is reused.
        let mut no_arc = first.clone();
        if let lemra_ir::ActivitySource::PairTable { table, .. } = &mut no_arc.activity {
            table.insert((VarId(0), VarId(2)), 3.0);
        }
        assert_ne!(no_arc.activity, first.activity);
        let (_, builds, outcome) = second_point(&first, &no_arc);
        assert_eq!((builds, outcome), (1, (1, 0, 0)));
    }

    #[test]
    fn a_new_memory_carried_set_is_bound_again_on_an_unchanged_network() {
        // With `E^m_w = −E^m_r` a memory-carried variable's entry fetch
        // costs what a definition saves, so carrying variable 2 in memory
        // prices the network exactly as before — but Bind starts its
        // memory residency at block entry, so the answer differs.
        let mut energy = lemra_energy::EnergyModel::default_16bit();
        energy.mem_write = -energy.mem_read;
        let base = AllocationProblem::new(tile(0.2).lifetimes, 0).with_energy(energy);
        let carried = base.clone().with_carried_in_memory(VarId(2));
        let (answer, builds, outcome) = second_point(&base, &carried);
        assert_eq!((builds, outcome), (1, (0, 1, 1)));
        let first = crate::allocate(&base).unwrap();
        assert_ne!(format!("{answer:?}"), format!("{first:?}"));
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["segment", "profile", "build", "solve", "bind", "validate"]
        );
        assert_eq!(Stage::Solve.to_string(), "solve");
    }

    #[test]
    fn refreshed_network_equals_a_fresh_build() {
        // `refresh` must re-price the retained network into exactly what a
        // fresh build of the same point emits: the same nodes and, in
        // creation order, the same arcs with the same bounds and costs.
        use lemra_energy::EnergyModel;
        let table = LifetimeTable::from_intervals(
            15,
            vec![
                (1, vec![6], false),
                (2, vec![9, 12], false),
                (7, vec![15], false),
            ],
        )
        .unwrap();
        let point = |volts: f64| {
            AllocationProblem::new(table.clone(), 2)
                .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts))
        };
        let (p1, p2) = (point(3.1), point(2.2));
        let mut sweep = PipelineCx::new();
        sweep.allocate_warm(&p1).unwrap();
        let repriced = sweep.allocate_warm(&p2).unwrap();
        // One build for the first point, one re-price for the second.
        assert_eq!(sweep.stats().stage(Stage::Build).runs, 2);
        assert_eq!(sweep.stats().warm_solves, 1);

        let retained = &sweep.retained.as_ref().expect("a retained network").built;
        let fresh = crate::build_network(&p2).unwrap();
        assert_eq!((retained.s, retained.t), (fresh.source, fresh.sink));
        assert_eq!(retained.net.node_count(), fresh.net.node_count());
        assert_eq!(retained.net.arc_count(), fresh.net.arc_count());
        let fields = |a: &lemra_netflow::Arc| (a.from, a.to, a.lower_bound, a.capacity, a.cost);
        for (i, ((_, got), (_, want))) in retained.net.arcs().zip(fresh.net.arcs()).enumerate() {
            assert_eq!(fields(got), fields(want), "arc {i}");
        }

        let cold = crate::allocate(&p2).unwrap();
        assert_eq!(cold.placements(), repriced.placements());
        assert_eq!(cold.chains(), repriced.chains());
        assert_eq!(cold.flow_cost(), repriced.flow_cost());
    }

    #[test]
    fn chain_flow_chains_compatible_items() {
        // Three items: 0 ends before 2 starts, 1 overlaps both ends.
        let intervals = [(Tick(1), Tick(3)), (Tick(2), Tick(6)), (Tick(4), Tick(7))];
        let zero = [0i64; 3];
        let outcome = solve_chain_flow(
            &mut PipelineCx::new(),
            &ChainFlowSpec {
                intervals: &intervals,
                item_cost: &[-10, -10, -10], // everything profitable
                source_cost: &zero,
                handoff_cost: &|_, _| 0,
                required: false,
                capacity: 2,
            },
        )
        .unwrap();
        assert_eq!(outcome.chains.len(), 2);
        let mut items: Vec<usize> = outcome.chains.iter().flatten().copied().collect();
        items.sort_unstable();
        assert_eq!(items, [0, 1, 2]);
        // 0 → 2 share a location; 1 rides alone.
        assert!(outcome.chains.iter().any(|c| c == &[0, 2]));
    }
}
