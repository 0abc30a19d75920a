//! The reproduction experiments: one function per table/figure of the
//! paper's evaluation (§6). Each returns structured rows that the `repro`
//! binary prints and the integration tests assert shapes over.

use lemra_baselines::{color_with_spills, left_edge, two_phase};
use lemra_core::{
    allocate, assign_memory_tiers, AllocationProblem, AllocationReport, GraphStyle, OffchipModel,
    PipelineCx,
};
use lemra_energy::{EnergyModel, RegisterEnergyKind, VoltageSchedule};
use lemra_ir::{asap, LifetimeTable};
use lemra_workloads::paper_examples::{figure3, figure4, figure4c_split, storage_demo};
use lemra_workloads::rsp::{rsp, RspConfig};
use serde::Serialize;

/// One measured solution, in the units the paper's tables use.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Solution label (e.g. "simultaneous", "two-phase \[8\]").
    pub label: String,
    /// Memory accesses (reads + writes).
    pub mem_accesses: u32,
    /// Register-file accesses.
    pub reg_accesses: u32,
    /// Memory storage locations used.
    pub storage_locations: u32,
    /// Registers used.
    pub registers_used: u32,
    /// Switching activity in the register file.
    pub register_switching: f64,
    /// Switching activity across memory locations.
    pub memory_switching: f64,
    /// Static-model energy (eq. 1), energy units.
    pub static_energy: f64,
    /// Activity-model energy (eq. 2), energy units.
    pub activity_energy: f64,
}

impl Row {
    fn new(label: impl Into<String>, r: &AllocationReport) -> Self {
        Self {
            label: label.into(),
            mem_accesses: r.mem_accesses(),
            reg_accesses: r.reg_accesses(),
            storage_locations: r.storage_locations,
            registers_used: r.registers_used,
            register_switching: r.register_switching,
            memory_switching: r.memory_switching,
            static_energy: r.static_energy,
            activity_energy: r.activity_energy,
        }
    }
}

/// Figure 3 (E1): partition-after-allocation vs simultaneous, one register.
#[derive(Debug, Clone, Serialize)]
pub struct Figure3Result {
    /// Phase-1 total switching of the two-phase baseline (paper: 2.4).
    pub phase1_switching: f64,
    /// The two-phase \[8\] solution (Figure 3a).
    pub two_phase: Row,
    /// The simultaneous solution (Figure 3b).
    pub simultaneous: Row,
    /// Static-energy improvement factor (paper: 1.4×).
    pub static_improvement: f64,
    /// Activity-energy improvement factor (paper: 1.3×).
    pub activity_improvement: f64,
    /// Memory-switching improvement factor (paper: 1.5×).
    pub memory_switching_improvement: f64,
}

/// Runs the Figure 3 experiment.
///
/// # Panics
///
/// Panics if any allocator fails on the figure instance (they cannot).
pub fn run_figure3() -> Figure3Result {
    let fig = figure3();
    let problem = AllocationProblem::new(fig.lifetimes.clone(), fig.registers)
        .with_energy(EnergyModel::figures())
        .with_activity(fig.activity.clone())
        .with_register_energy(RegisterEnergyKind::Activity);

    let baseline = two_phase(&problem).expect("two-phase succeeds on figure 3");
    let base_report = AllocationReport::new(&problem, &baseline.allocation);

    let ours = allocate(&problem).expect("figure 3 is feasible");
    let ours_report = AllocationReport::new(&problem, &ours);

    // Static comparison re-optimises under the static model, as the paper's
    // "1.4 times improvement using a static energy model".
    let static_problem = problem
        .clone()
        .with_register_energy(RegisterEnergyKind::Static);
    let ours_static = AllocationReport::new(
        &static_problem,
        &allocate(&static_problem).expect("feasible"),
    );
    let base_static = AllocationReport::new(&static_problem, &baseline.allocation);

    Figure3Result {
        phase1_switching: baseline.phase1_switching,
        two_phase: Row::new("two-phase [8] (fig 3a)", &base_report),
        simultaneous: Row::new("simultaneous (fig 3b)", &ours_report),
        static_improvement: base_static.static_energy / ours_static.static_energy,
        activity_improvement: base_report.activity_energy / ours_report.activity_energy,
        memory_switching_improvement: if ours_report.memory_switching > 0.0 {
            base_report.memory_switching / ours_report.memory_switching
        } else {
            f64::INFINITY
        },
    }
}

/// Figure 4 (E2): all-pairs graph (a: two-phase, b: simultaneous) vs the
/// region graph with a split lifetime (c).
#[derive(Debug, Clone, Serialize)]
pub struct Figure4Result {
    /// Figure 4a: all-pairs graph, partition after allocation.
    pub a: Row,
    /// Figure 4b: all-pairs graph, simultaneous.
    pub b: Row,
    /// Figure 4c: region graph with `f` split.
    pub c: Row,
    /// Energy improvement of (c) over (a) (paper: 1.35×).
    pub improvement_c_over_a: f64,
    /// Supplementary storage demonstrator: all-pairs vs region locations.
    pub storage_all_pairs: Row,
    /// Region-graph solution of the storage demonstrator.
    pub storage_regions: Row,
}

/// Runs the Figure 4 experiment.
///
/// # Panics
///
/// Panics if any allocator fails on the figure instances (they cannot).
pub fn run_figure4() -> Figure4Result {
    let fig = figure4();
    let base_problem = AllocationProblem::new(fig.lifetimes.clone(), fig.registers)
        .with_energy(EnergyModel::figures())
        .with_activity(fig.activity.clone())
        .with_register_energy(RegisterEnergyKind::Activity);

    // (a) all-pairs + two-phase.
    let all_pairs = base_problem.clone().with_style(GraphStyle::AllPairs);
    let a_alloc = two_phase(&all_pairs).expect("two-phase succeeds");
    let a = AllocationReport::new(&all_pairs, &a_alloc.allocation);

    // (b) all-pairs + simultaneous.
    let b_alloc = allocate(&all_pairs).expect("feasible");
    let b = AllocationReport::new(&all_pairs, &b_alloc);

    // (c) region graph + manual split of f.
    let (f_var, split_at) = figure4c_split();
    let regions = base_problem.clone().with_extra_split(f_var, split_at);
    let c_alloc = allocate(&regions).expect("feasible");
    let c = AllocationReport::new(&regions, &c_alloc);

    // Supplementary: the storage-locations property in isolation.
    let demo = storage_demo();
    let demo_problem = AllocationProblem::new(demo.lifetimes.clone(), demo.registers)
        .with_energy(lemra_workloads::paper_examples::storage_demo_energy())
        .with_activity(demo.activity.clone())
        .with_register_energy(RegisterEnergyKind::Activity);
    let demo_all = demo_problem.clone().with_style(GraphStyle::AllPairs);
    let sd_all = AllocationReport::new(&demo_all, &allocate(&demo_all).expect("feasible"));
    let sd_reg = AllocationReport::new(&demo_problem, &allocate(&demo_problem).expect("feasible"));

    Figure4Result {
        improvement_c_over_a: a.activity_energy
            / AllocationReport::new(&regions, &c_alloc).activity_energy,
        a: Row::new("all-pairs two-phase (fig 4a)", &a),
        b: Row::new("all-pairs simultaneous (fig 4b)", &b),
        c: Row::new("regions + split f (fig 4c)", &c),
        storage_all_pairs: Row::new("storage demo: all-pairs", &sd_all),
        storage_regions: Row::new("storage demo: regions", &sd_reg),
    }
}

/// One Table 1 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Memory frequency label (`f`, `f/2`, `f/4`).
    pub frequency: String,
    /// Access period `c`.
    pub period: u32,
    /// Scaled memory supply voltage.
    pub volts: f64,
    /// Memory accesses.
    pub mem_accesses: u32,
    /// Register accesses.
    pub reg_accesses: u32,
    /// Memory read/write ports the solution needs (paper: one read/write
    /// port for rows 1-2, two read ports and one write port for row 3).
    pub mem_ports: (u32, u32),
    /// Static energy relative to the `f/4` row (paper: 4.9 / 2 / 1).
    pub relative_e: f64,
    /// Activity energy relative to the `f/4` row (paper: 2.8 / 1.6 / 1).
    pub relative_ae: f64,
}

/// Table 1 (E3): the RSP kernel under memory frequencies `f`, `f/2`, `f/4`
/// with supply scaling per [`VoltageSchedule::paper`].
///
/// The three rows are a parameter sweep, so they run through one warm
/// [`PipelineCx`] ([`PipelineCx::allocate_warm`]).
///
/// # Panics
///
/// Panics if any row's allocation fails (the synthetic kernel is tuned to
/// be feasible with 16 registers for all three rows).
pub fn run_table1() -> Vec<Table1Row> {
    let workload = rsp(&RspConfig::default());
    let schedule = VoltageSchedule::paper();
    let registers = 16;
    let mut sweep = PipelineCx::new();

    let mut raw = Vec::new();
    for (label, period) in [("f", 1u32), ("f/2", 2), ("f/4", 4)] {
        let volts = schedule.voltage_for(period);
        let energy = EnergyModel::default_16bit().with_memory_voltage(volts);
        let problem = AllocationProblem::new(workload.lifetimes.clone(), registers)
            .with_access_period(period)
            .with_energy(energy)
            .with_activity(workload.activity.clone());
        let report =
            AllocationReport::new(&problem, &sweep.allocate_warm(&problem).expect("feasible"));
        raw.push((label.to_owned(), period, volts, report));
    }
    let last_e = raw.last().expect("three rows").3.static_energy;
    let last_ae = raw.last().expect("three rows").3.activity_energy;
    raw.into_iter()
        .map(|(frequency, period, volts, r)| Table1Row {
            frequency,
            period,
            volts,
            mem_accesses: r.mem_accesses(),
            reg_accesses: r.reg_accesses(),
            mem_ports: (r.max_reads_per_step, r.max_writes_per_step),
            relative_e: r.static_energy / last_e,
            relative_ae: r.activity_energy / last_ae,
        })
        .collect()
}

/// One row of the supplementary off-chip projection (E6): the §7 claim that
/// "significantly larger savings" follow when the technique is applied to
/// off-chip memory.
#[derive(Debug, Clone, Serialize)]
pub struct OffchipRow {
    /// On-chip memory capacity in storage locations.
    pub capacity: u32,
    /// Variables placed on-chip.
    pub onchip_vars: usize,
    /// Variables relegated off-chip.
    pub offchip_vars: usize,
    /// Total static energy with the tiering.
    pub tiered_energy: f64,
    /// Energy saving factor vs everything off-chip.
    pub saving_factor: f64,
}

/// E6: tier the RSP kernel's memory residents over an on-chip memory of
/// growing capacity, against a 30/60-unit off-chip memory.
///
/// # Panics
///
/// Panics if the RSP allocation fails (it cannot).
pub fn run_offchip() -> Vec<OffchipRow> {
    let workload = rsp(&RspConfig::default());
    let problem = AllocationProblem::new(workload.lifetimes.clone(), 8)
        .with_activity(workload.activity.clone());
    let allocation = PipelineCx::new().allocate_warm(&problem).expect("feasible");
    let model = OffchipModel::default();
    let max = allocation.storage_locations();
    let mut rows = Vec::new();
    for capacity in [0, 1, 2, 4, max] {
        let t = assign_memory_tiers(&problem, &allocation, capacity, &model)
            .expect("tiering always feasible");
        rows.push(OffchipRow {
            capacity,
            onchip_vars: t.onchip.len(),
            offchip_vars: t.offchip.len(),
            tiered_energy: t.tiered_static_energy,
            saving_factor: t.all_offchip_energy / t.tiered_static_energy,
        });
    }
    rows
}

/// One register-file-sizing row (E7).
#[derive(Debug, Clone, Serialize)]
pub struct SizingRow {
    /// Register file size `R`.
    pub registers: u32,
    /// Physical array words (next power of two, what the SRAM model sees).
    pub array_words: u32,
    /// Per-read register energy under the geometry-derived model.
    pub reg_read_energy: f64,
    /// Memory accesses of the optimal allocation.
    pub mem_accesses: u32,
    /// Total static energy.
    pub static_energy: f64,
}

/// E7 (supplementary): size the register file for the RSP kernel with the
/// first-principles SRAM model — bigger files make each access costlier
/// (longer bit lines), and past the maximum lifetime density (26) extra
/// registers buy nothing.
///
/// The eight sizes sweep one warm [`PipelineCx`]: only the flow value and
/// the geometry-derived arc costs move between points, so every solve
/// after the first warm-starts.
///
/// # Panics
///
/// Panics if an allocation fails (it cannot).
pub fn run_sizing() -> Vec<SizingRow> {
    use lemra_energy::SramArray;
    let workload = rsp(&RspConfig::default());
    let mut sweep = PipelineCx::new();
    let mut rows = Vec::new();
    for registers in [2u32, 4, 8, 12, 16, 20, 26, 32] {
        let words = registers.next_power_of_two().max(4);
        let energy = SramArray::paper_memory().energy_model_with(&SramArray::new(words, 16));
        let reg_read_energy = energy.reg_read;
        let problem = AllocationProblem::new(workload.lifetimes.clone(), registers)
            .with_energy(energy)
            .with_activity(workload.activity.clone());
        let report =
            AllocationReport::new(&problem, &sweep.allocate_warm(&problem).expect("feasible"));
        rows.push(SizingRow {
            registers,
            array_words: words,
            reg_read_energy,
            mem_accesses: report.mem_accesses(),
            static_energy: report.static_energy,
        });
    }
    rows
}

/// One headline-comparison row: the simultaneous allocator vs a baseline on
/// one workload (E4: "1.4 to 2.5 times over previous research").
#[derive(Debug, Clone, Serialize)]
pub struct HeadlineRow {
    /// Workload name.
    pub workload: String,
    /// Baseline name.
    pub baseline: String,
    /// Baseline static energy / simultaneous static energy.
    pub static_ratio: f64,
    /// Baseline activity energy / simultaneous activity energy.
    pub activity_ratio: f64,
}

/// Runs the headline sweep: every baseline on every evaluation workload.
///
/// Workloads are independent, so they fan out over
/// [`par_map`](crate::parallel::par_map) threads; rows come back grouped in
/// workload order, byte-identical to the serial sweep (`LEMRA_THREADS=1`).
/// Within a workload the activity- and static-model solves share one warm
/// [`PipelineCx`].
///
/// # Panics
///
/// Panics if a workload fails to build or allocate.
pub fn run_headline() -> Vec<HeadlineRow> {
    crate::parallel::par_map(headline_workloads(), headline_rows_for)
        .into_iter()
        .flatten()
        .collect()
}

/// All baseline-comparison rows of one headline workload.
fn headline_rows_for(
    (name, table, activity, registers): (String, LifetimeTable, lemra_ir::ActivitySource, u32),
) -> Vec<HeadlineRow> {
    // The baselines place whole variables, i.e. they pick register
    // chains — every such choice is one feasible flow on the all-pairs
    // graph, so the simultaneous optimum over that graph can never lose.
    let problem = AllocationProblem::new(table, registers)
        .with_activity(activity)
        .with_style(GraphStyle::AllPairs)
        .with_register_energy(RegisterEnergyKind::Activity);
    // The activity- and static-model solves differ only in arc costs, so
    // the second warm-starts from the first's residual state.
    let mut sweep = PipelineCx::new();
    let ours_activity =
        AllocationReport::new(&problem, &sweep.allocate_warm(&problem).expect("feasible"));
    let static_problem = problem
        .clone()
        .with_register_energy(RegisterEnergyKind::Static);
    let ours_static = AllocationReport::new(
        &static_problem,
        &sweep.allocate_warm(&static_problem).expect("feasible"),
    );
    let baselines: Vec<(&str, lemra_core::Allocation)> = vec![
        (
            "two-phase [8]",
            two_phase(&problem).expect("two-phase succeeds").allocation,
        ),
        (
            "graph coloring [6]",
            color_with_spills(&problem)
                .expect("coloring succeeds")
                .allocation,
        ),
        (
            "left-edge",
            left_edge(&problem).expect("left-edge succeeds").allocation,
        ),
    ];
    baselines
        .into_iter()
        .map(|(bname, alloc)| {
            let r = AllocationReport::new(&problem, &alloc);
            HeadlineRow {
                workload: name.clone(),
                baseline: bname.to_owned(),
                static_ratio: r.static_energy / ours_static.static_energy,
                activity_ratio: r.activity_energy / ours_activity.activity_energy,
            }
        })
        .collect()
}

fn headline_workloads() -> Vec<(String, LifetimeTable, lemra_ir::ActivitySource, u32)> {
    use lemra_workloads::random::random_patterns;
    let mut out = Vec::new();

    let fig3 = figure3();
    out.push((
        "figure3".to_owned(),
        fig3.lifetimes,
        fig3.activity,
        fig3.registers,
    ));
    let fig4 = figure4();
    out.push((
        "figure4".to_owned(),
        fig4.lifetimes,
        fig4.activity,
        fig4.registers,
    ));

    for (name, block, regs) in [
        ("fir8", lemra_workloads::dsp::fir(8).expect("builds"), 4),
        (
            "iir2",
            lemra_workloads::dsp::iir_biquad(2).expect("builds"),
            4,
        ),
        (
            "elliptic",
            lemra_workloads::dsp::elliptic_cascade().expect("builds"),
            4,
        ),
    ] {
        let schedule = asap(&block).expect("schedulable");
        let table = LifetimeTable::from_schedule(&block, &schedule).expect("valid");
        let n = table.len();
        out.push((name.to_owned(), table, random_patterns(n, 42), regs));
    }

    let radar = rsp(&RspConfig::default());
    out.push(("rsp".to_owned(), radar.lifetimes, radar.activity, 16));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_shape() {
        let r = run_figure3();
        // Phase-1 optimum matches the paper's 2.4 exactly.
        assert!((r.phase1_switching - 2.4).abs() < 1e-9);
        // Simultaneous wins under both models and uses no more memory
        // accesses.
        assert!(r.static_improvement >= 1.0);
        assert!(r.activity_improvement >= 1.0);
        assert!(r.simultaneous.mem_accesses <= r.two_phase.mem_accesses);
    }

    #[test]
    fn figure4_shape() {
        let r = run_figure4();
        // (b) is the energy optimum over the richest graph.
        assert!(r.b.activity_energy <= r.a.activity_energy + 1e-9);
        // (c) beats (a) — the paper's 1.35× claim, shape-wise.
        assert!(r.improvement_c_over_a >= 1.0);
        // Storage demo: regions use no more storage locations.
        assert!(r.storage_regions.storage_locations <= r.storage_all_pairs.storage_locations);
    }

    #[test]
    fn table1_shape() {
        let rows = run_table1();
        assert_eq!(rows.len(), 3);
        // f/4 is the normalisation row.
        assert!((rows[2].relative_e - 1.0).abs() < 1e-9);
        assert!((rows[2].relative_ae - 1.0).abs() < 1e-9);
        // Energy falls monotonically as the memory is scaled down.
        assert!(rows[0].relative_e > rows[1].relative_e);
        assert!(rows[1].relative_e > rows[2].relative_e);
        // The paper's band: several-fold savings at f vs f/4.
        assert!(
            rows[0].relative_e > 2.0 && rows[0].relative_e < 10.0,
            "relative E at f: {}",
            rows[0].relative_e
        );
    }

    #[test]
    fn sizing_knee_at_max_density() {
        let rows = run_sizing();
        // Energy is non-increasing in R (the solver never uses a register
        // that hurts) and flattens exactly once everything fits (density 26).
        for w in rows.windows(2) {
            assert!(w[1].static_energy <= w[0].static_energy + 1e-6);
        }
        let at26 = rows.iter().find(|r| r.registers == 26).expect("swept");
        let at32 = rows.iter().find(|r| r.registers == 32).expect("swept");
        assert_eq!(at26.mem_accesses, 0);
        assert!((at26.static_energy - at32.static_energy).abs() < 1e-6);
        // Per-access cost grows with the array.
        assert!(rows.last().expect("rows").reg_read_energy > rows[0].reg_read_energy);
    }

    #[test]
    fn offchip_savings_grow_with_capacity() {
        let rows = run_offchip();
        assert!(rows.len() >= 3);
        for w in rows.windows(2) {
            assert!(w[1].saving_factor >= w[0].saving_factor - 1e-9);
        }
        // The §7 projection: off-chip premiums dwarf on-chip costs, so the
        // full-capacity row saves severalfold on the memory traffic.
        let last = rows.last().expect("non-empty");
        assert!(last.saving_factor > 1.5, "saving {}", last.saving_factor);
        assert_eq!(last.offchip_vars, 0);
    }

    #[test]
    fn headline_parallel_output_is_byte_identical_to_serial() {
        let serial: Vec<HeadlineRow> =
            crate::parallel::par_map_threads(1, headline_workloads(), headline_rows_for)
                .into_iter()
                .flatten()
                .collect();
        let parallel: Vec<HeadlineRow> =
            crate::parallel::par_map_threads(4, headline_workloads(), headline_rows_for)
                .into_iter()
                .flatten()
                .collect();
        let a = serde_json::to_string(&serial).expect("serialises");
        let b = serde_json::to_string(&parallel).expect("serialises");
        assert_eq!(a, b, "parallel sweep must not change committed rows");
    }

    #[test]
    fn headline_simultaneous_never_loses() {
        for row in run_headline() {
            assert!(
                row.static_ratio >= 1.0 - 1e-9,
                "{} / {}: static ratio {}",
                row.workload,
                row.baseline,
                row.static_ratio
            );
        }
    }
}
