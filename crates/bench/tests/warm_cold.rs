//! Warm-start sweeps must commit byte-for-byte the same allocations as
//! independent cold solves — not just the same objective. This drives the
//! exact sweep shape of the `sweep_scaling` benchmark at a test-sized
//! instance and compares every field the reports are built from.

use lemra_core::{allocate, AllocationProblem, PipelineCx};
use lemra_energy::{EnergyModel, RegisterEnergyKind};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};

/// The benchmark's voltage schedule: 3.3 V scaled down geometrically by 3%
/// per step, twenty-four operating points.
fn voltages() -> Vec<f64> {
    (0..24).map(|i| 3.3 * 0.97f64.powi(i)).collect()
}

fn sweep_commits_identical_allocations(vars: usize) {
    let table = random_lifetimes(&RandomConfig::scaled(vars, 1));
    let activity = random_patterns(vars, 1);
    let mut sweep = PipelineCx::new();
    let mut prev_placements: Option<Vec<lemra_core::Placement>> = None;
    let mut units_after_cold = 0u64;
    let mut churn = 0u64;
    for volts in voltages() {
        let problem = AllocationProblem::new(table.clone(), (vars / 8) as u32)
            .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts))
            .with_activity(activity.clone())
            .with_register_energy(RegisterEnergyKind::Activity);
        let warm = sweep.allocate_warm(&problem).expect("feasible");
        let cold = allocate(&problem).expect("feasible");
        assert_eq!(
            warm.flow_cost(),
            cold.flow_cost(),
            "objective diverged at {vars} vars, {volts} V"
        );
        assert_eq!(
            warm.placements(),
            cold.placements(),
            "placements diverged at {vars} vars, {volts} V"
        );
        assert_eq!(
            warm.chains(),
            cold.chains(),
            "register chains diverged at {vars} vars, {volts} V"
        );
        match &prev_placements {
            // Placement churn between consecutive points: the flow a
            // perfectly incremental repair would have to move.
            Some(prev) => {
                churn += prev
                    .iter()
                    .zip(warm.placements())
                    .filter(|(a, b)| a != b)
                    .count() as u64;
            }
            // First point is the cold solve; effort counters after it
            // baseline the warm repairs that follow.
            None => units_after_cold = sweep.solver_stats().pushed_units,
        }
        prev_placements = Some(warm.placements().to_vec());
    }
    // All but the first of the twenty-four points must have warm-started.
    assert!(
        sweep.warm_solves() >= 23,
        "expected warm-start reuse at {vars} vars, got {} warm / {} cold",
        sweep.warm_solves(),
        sweep.cold_solves()
    );
    // The repairs must be incremental, not re-solves in disguise: the flow
    // the twenty-three warm points moved (drained excess plus cancelled
    // cycles) stays within 2× of the placement churn they committed.
    let moved = sweep.solver_stats().pushed_units - units_after_cold;
    assert!(
        moved <= 2 * churn,
        "warm repairs over-routed at {vars} vars: moved {moved} units \
         against {churn} churned placements"
    );
}

#[test]
fn voltage_sweep_identical_at_64_vars() {
    sweep_commits_identical_allocations(64);
}

#[test]
fn voltage_sweep_identical_at_128_vars() {
    sweep_commits_identical_allocations(128);
}

#[test]
fn voltage_sweep_identical_at_256_vars() {
    sweep_commits_identical_allocations(256);
}
