//! E5: the polynomial-time claim (§4/§7 — "large network flow problems have
//! been solved with very efficient algorithms").
//!
//! Benchmarks the end-to-end allocation (network construction + min-cost
//! flow + extraction) over random instances of growing size, plus the SSP
//! solver against the cycle-cancelling reference on the same instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lemra_core::{allocate, AllocationProblem};
use lemra_netflow::{Backend, FlowNetwork};
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};
use std::hint::black_box;

fn allocation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocate_scaling");
    for vars in [32usize, 64, 128, 256, 512] {
        let table = random_lifetimes(&RandomConfig::scaled(vars, 1));
        let problem = AllocationProblem::new(table, (vars / 8) as u32)
            .with_activity(random_patterns(vars, 1));
        group.throughput(Throughput::Elements(vars as u64));
        group.bench_with_input(BenchmarkId::from_parameter(vars), &problem, |b, p| {
            b.iter(|| allocate(black_box(p)).expect("feasible"));
        });
    }
    group.finish();
}

fn random_flow(
    vars: usize,
    seed: u64,
) -> (
    FlowNetwork,
    lemra_netflow::NodeId,
    lemra_netflow::NodeId,
    i64,
) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new();
    let nodes = net.add_nodes(vars);
    for i in 0..vars {
        for _ in 0..4 {
            let j = rng.gen_range(i + 1..vars.max(i + 2)).min(vars - 1);
            if j > i {
                net.add_arc(
                    nodes[i],
                    nodes[j],
                    rng.gen_range(1..4),
                    rng.gen_range(-10..10),
                )
                .expect("valid arc");
            }
        }
    }
    (net, nodes[0], nodes[vars - 1], 4)
}

fn solver_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("mincost_solvers");
    // Bench ids predate the `Backend` selector and are pinned by
    // BENCH_solver.json; keep them stable.
    let backends = [
        ("ssp", Backend::Ssp),
        ("scaling", Backend::Scaling),
        ("cycle_cancel", Backend::CycleCancel),
        ("network_simplex", Backend::Simplex),
        ("cost_scaling", Backend::CostScaling),
    ];
    // All five backends run at every size, 512 included: minimum-mean
    // cancellation and block pivoting made the former laggards measurable
    // at the size where `Auto` would actually consider them.
    for vars in [32usize, 128, 512] {
        let (net, s, t, f) = random_flow(vars, 7);
        for (id, backend) in backends {
            group.bench_with_input(BenchmarkId::new(id, vars), &net, |b, net| {
                b.iter(|| backend.solve(black_box(net), s, t, f));
            });
        }
    }
    group.finish();
}

/// The solve of the built 512-variable allocation network (the
/// `allocate_scaling/512` instance minus construction and extraction): at
/// more than 100 000 arcs SSP settles its rounds over the pruned working
/// set, and cost scaling is the independent reference on the same network.
fn large_solve(c: &mut Criterion) {
    use lemra_core::build_network;
    use lemra_netflow::{min_cost_flow_with, SolverWorkspace};
    let mut group = c.benchmark_group("large_solve");
    let vars = 512usize;
    let table = random_lifetimes(&RandomConfig::scaled(vars, 1));
    let problem =
        AllocationProblem::new(table, (vars / 8) as u32).with_activity(random_patterns(vars, 1));
    let view = build_network(&problem).expect("builds");
    let target = i64::from(problem.registers);
    let mut ws = SolverWorkspace::default();
    group.bench_function("ssp", |b| {
        b.iter(|| {
            min_cost_flow_with(
                black_box(&view.net),
                view.source,
                view.sink,
                target,
                &mut ws,
            )
            .expect("feasible")
        });
    });
    group.bench_function("cost_scaling", |b| {
        b.iter(|| {
            Backend::CostScaling
                .solve_with(
                    black_box(&view.net),
                    view.source,
                    view.sink,
                    target,
                    &mut ws,
                )
                .expect("feasible")
        });
    });
    group.finish();
}

criterion_group!(benches, allocation_scaling, solver_comparison, large_solve);
criterion_main!(benches);
