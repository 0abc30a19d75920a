//! Whole-program allocation at scale: end-to-end chain latency, program
//! throughput (blocks/sec via criterion throughput), and the
//! realloc-included `allocate_program` path.
//!
//! `allocate_wholeprogram/e2e` runs the 1k loop-nest tier (8 tiles × 128
//! variables) through `allocate_chain`; after the first tile every block
//! re-prices the retained network of the structurally identical tile
//! before it. `allocate_wholeprogram/trace` is the min-reg trace tier,
//! where every block differs and each one rebuilds its network. The larger
//! 4k/8k tiers are exercised by the `wholeprogram` binary and the CI smoke
//! job; keeping them out of criterion keeps `cargo bench` wall-clock sane.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lemra_core::{allocate_chain, allocate_program};
use lemra_workloads::wholeprogram::{loop_nest, min_reg_trace, LoopNestConfig, MinRegTraceConfig};
use std::hint::black_box;

fn e2e(c: &mut Criterion) {
    let chain = loop_nest(&LoopNestConfig::tier_1k(42));
    let mut group = c.benchmark_group("allocate_wholeprogram");
    group.sample_size(10);
    group.throughput(Throughput::Elements(chain.blocks.len() as u64));
    group.bench_function("e2e", |b| {
        b.iter(|| allocate_chain(black_box(&chain)).expect("allocates"))
    });
    let chain = min_reg_trace(&MinRegTraceConfig::tier_2k(42));
    group.throughput(Throughput::Elements(chain.blocks.len() as u64));
    group.bench_function("trace", |b| {
        b.iter(|| allocate_program(black_box(&chain)).expect("allocates"))
    });
    group.finish();
}

criterion_group!(benches, e2e);
criterion_main!(benches);
