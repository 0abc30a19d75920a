//! Cross-request allocation cache: hit-path solve latency vs cold solves,
//! plus a redundant-traffic workload where most requests repeat an instance
//! the process has already solved (the shape the cache exists for: repeated
//! synthesis runs, design-space sweeps revisiting operating points).
//!
//! `cache_solve` isolates the Solve stage on the built 512-variable
//! allocation network (its time-line form, about 6 000 arcs): `cold` is the
//! plain fallback-chain solve and
//! `exact_hit` is the `O(E)` instance key + table lookup + replay +
//! re-validation of a resident entry.
//! `cache_redundant_traffic` measures the end-to-end allocation trace (24
//! requests over 8 distinct operating points) with the cache off vs exact
//! mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemra_core::{build_network, clear_cache, AllocationProblem, CacheMode, PipelineCx};
use lemra_energy::EnergyModel;
use lemra_netflow::LemraConfig;
use lemra_workloads::random::{random_lifetimes, random_patterns, RandomConfig};
use lemra_workloads::rsp::{rsp, RspConfig};
use std::hint::black_box;

/// A context with the configured backend and an explicit cache mode.
fn cx_in(mode: CacheMode) -> PipelineCx {
    PipelineCx::with_backend_cache(LemraConfig::get().backend, mode)
}

/// One Solve stage of the same built instance, two ways. A fresh context
/// per iteration keeps the measurement honest: nothing is reused across
/// requests except the process-wide cache under test.
fn solve_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_solve");
    let vars = 512usize;
    let table = random_lifetimes(&RandomConfig::scaled(vars, 1));
    let problem =
        AllocationProblem::new(table, (vars / 8) as u32).with_activity(random_patterns(vars, 1));
    let view = build_network(&problem).expect("builds");
    let target = i64::from(problem.registers);

    clear_cache();
    group.bench_function(BenchmarkId::from_parameter("cold"), |b| {
        b.iter(|| {
            let mut cx = cx_in(CacheMode::Off);
            cx.cached_solve(black_box(&view.net), view.source, view.sink, target)
                .expect("feasible")
        });
    });

    // Seed the entry once; every timed iteration is then an exact hit.
    clear_cache();
    cx_in(CacheMode::Exact)
        .cached_solve(&view.net, view.source, view.sink, target)
        .expect("feasible");
    group.bench_function(BenchmarkId::from_parameter("exact_hit"), |b| {
        b.iter(|| {
            let mut cx = cx_in(CacheMode::Exact);
            let sol = cx
                .cached_solve(black_box(&view.net), view.source, view.sink, target)
                .expect("feasible");
            assert_eq!(cx.cache_exact_hits(), 1);
            sol
        });
    });
    group.finish();
}

/// A 24-request trace over 8 distinct operating points (each point
/// requested three times): the redundant-traffic shape. With the cache off
/// all 24 solve cold; in exact mode the steady state answers 2 of every 3
/// requests from the exact table.
fn redundant_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_redundant_traffic");
    group.sample_size(10);
    let radar = rsp(&RspConfig::default());
    let points: Vec<AllocationProblem> = (0..24)
        .map(|i| {
            AllocationProblem::new(radar.lifetimes.clone(), 16)
                .with_activity(radar.activity.clone())
                .with_energy(
                    EnergyModel::default_16bit().with_memory_voltage(3.3 - f64::from(i % 8) * 0.1),
                )
        })
        .collect();
    for mode in [CacheMode::Off, CacheMode::Exact] {
        let label = if mode == CacheMode::Off {
            "off"
        } else {
            "exact"
        };
        clear_cache();
        group.bench_with_input(BenchmarkId::from_parameter(label), &points, |b, points| {
            b.iter(|| {
                for p in points {
                    let mut cx = cx_in(mode);
                    black_box(cx.allocate(black_box(p)).expect("feasible"));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, solve_paths, redundant_traffic);
criterion_main!(benches);
