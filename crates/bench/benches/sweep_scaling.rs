//! Warm-start sweep scaling: a Table-1-shaped parameter sweep (fixed
//! lifetimes, memory supply voltage stepped across twenty-four points)
//! solved once per point from scratch (`cold`) and once through one
//! [`PipelineCx::allocate_warm`] context that repairs the previous optimum
//! from the arc-cost deltas (`warm`). The medians land in `BENCH_solver.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemra_core::{allocate, AllocationProblem, PipelineCx};
use lemra_energy::{EnergyModel, RegisterEnergyKind};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};
use std::hint::black_box;

/// Twenty-four supply-voltage points, 3.3 V scaled down geometrically by 3%
/// per step (3.3, 3.20, 3.10, … 1.64 V) — the dense version of Table 1's
/// three-row schedule, shaped like a real DVFS operating-point curve. Finer
/// steps mean adjacent points share more of their optimum, which is the
/// regime warm-starting targets.
fn voltages() -> Vec<f64> {
    (0..24).map(|i| 3.3 * 0.97f64.powi(i)).collect()
}

fn sweep_problems(vars: usize) -> Vec<AllocationProblem> {
    let table = random_lifetimes(&RandomConfig::scaled(vars, 1));
    let activity = random_patterns(vars, 1);
    voltages()
        .into_iter()
        .map(|volts| {
            AllocationProblem::new(table.clone(), (vars / 8) as u32)
                .with_energy(EnergyModel::default_16bit().with_memory_voltage(volts))
                .with_activity(activity.clone())
                .with_register_energy(RegisterEnergyKind::Activity)
        })
        .collect()
}

fn sweep_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_scaling");
    for vars in [64usize, 128, 256] {
        let problems = sweep_problems(vars);
        group.bench_with_input(BenchmarkId::new("cold", vars), &problems, |b, ps| {
            b.iter(|| {
                for p in ps {
                    black_box(allocate(black_box(p)).expect("feasible"));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("warm", vars), &problems, |b, ps| {
            b.iter(|| {
                let mut sweep = PipelineCx::new();
                for p in ps {
                    black_box(sweep.allocate_warm(black_box(p)).expect("feasible"));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, sweep_scaling);
criterion_main!(benches);
