//! Resilience under fault injection (`fault-inject` feature): a solver
//! failure planted in the middle of the 24-point voltage sweep must not
//! change a single byte of the sweep's output. The fallback chain absorbs
//! the failure, records exactly one [`SolverIncident`], and every point
//! still commits the allocation an uninjected cold run would.
//!
//! The fault plan is process-global, so all scenarios run inside one
//! `#[test]` to keep them serialized.
//!
//! [`SolverIncident`]: lemra_netflow::SolverIncident
#![cfg(feature = "fault-inject")]

use lemra_core::{allocate, Allocation, AllocationProblem, PipelineCx};
use lemra_energy::{EnergyModel, RegisterEnergyKind};
use lemra_netflow::{FaultKind, FaultPlan};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};

const VARS: usize = 64;

/// The benchmark's voltage schedule: 3.3 V scaled down geometrically by 3%
/// per step, twenty-four operating points.
fn voltages() -> Vec<f64> {
    (0..24).map(|i| 3.3 * 0.97f64.powi(i)).collect()
}

fn problem_at(
    table: &lemra_ir::LifetimeTable,
    activity: &lemra_ir::ActivitySource,
    volts: f64,
) -> AllocationProblem {
    AllocationProblem::new(table.clone(), (VARS / 8) as u32)
        .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts))
        .with_activity(activity.clone())
        .with_register_energy(RegisterEnergyKind::Activity)
}

fn assert_identical(warm: &Allocation, cold: &Allocation, what: &str, volts: f64) {
    assert_eq!(
        warm.flow_cost(),
        cold.flow_cost(),
        "{what}: cost at {volts} V"
    );
    assert_eq!(
        warm.placements(),
        cold.placements(),
        "{what}: placements at {volts} V"
    );
    assert_eq!(warm.chains(), cold.chains(), "{what}: chains at {volts} V");
}

#[test]
fn injected_faults_leave_the_sweep_byte_identical() {
    let table = random_lifetimes(&RandomConfig::scaled(VARS, 1));
    let activity = random_patterns(VARS, 1);

    // The uninjected cold reference, one independent solve per point.
    let reference: Vec<Allocation> = voltages()
        .iter()
        .map(|&v| allocate(&problem_at(&table, &activity, v)).expect("feasible"))
        .collect();

    // Each scenario plants one fault at sweep point k. The sweep's
    // ResilientSolver numbers its solves 0..24, so `fail_at(_, k)` hits
    // exactly the k-th point's primary (warm) attempt; interleaved cold
    // allocations are not re-entered because the reference above is
    // precomputed.
    for (kind, k) in [
        (FaultKind::Panic, 11u64),
        (FaultKind::Budget, 5),
        (FaultKind::Overflow, 17),
    ] {
        FaultPlan::new().fail_at(kind, k).install();
        let mut sweep = PipelineCx::new();
        for (point, &volts) in voltages().iter().enumerate() {
            let warm = sweep
                .allocate_warm(&problem_at(&table, &activity, volts))
                .expect("sweep point must survive the injected fault");
            assert_identical(&warm, &reference[point], &format!("{kind:?}@{k}"), volts);
        }
        FaultPlan::clear();

        assert_eq!(
            sweep.incident_count(),
            1,
            "{kind:?}@{k}: expected exactly one absorbed incident"
        );
        let incident = &sweep.incidents()[0];
        assert_eq!(incident.solve_index, k, "{kind:?}@{k}");
        assert!(
            incident.recovered_with.is_some(),
            "{kind:?}@{k}: fallback should have completed the point"
        );
        // The incident count rides into the stats the drivers print behind
        // --timings.
        assert_eq!(sweep.solver_stats().incidents, 1, "{kind:?}@{k}");
        // The fault cost at most the faulted point's warm reuse (a panic
        // resets the reoptimizer, so the next point re-solves cold).
        assert!(
            sweep.warm_solves() >= 21,
            "{kind:?}@{k}: warm reuse collapsed to {} warm / {} cold",
            sweep.warm_solves(),
            sweep.cold_solves()
        );
    }
}
