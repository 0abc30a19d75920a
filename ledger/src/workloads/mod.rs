//! The five named workloads. Each takes its inputs from the seed alone,
//! measures for the requested window, and checks its outputs with oracles
//! outside the timed window.

mod block;
mod paper;
mod program;
mod server;

use crate::measure::{Ctx, Outcome};

/// Every workload, in `ledger run`'s default order.
pub const NAMES: [&str; 5] = [
    "paper_suite",
    "block_512",
    "program_4k",
    "program_trace",
    "server_mix",
];

/// Whether the workload runs the paper's sweeps serially (the
/// `LEMRA_THREADS=1` path of `repro`); the others use the configuration's
/// default parallelism and pass explicit worker counts where they need one.
pub fn serial(name: &str) -> bool {
    name == "paper_suite"
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "paper_suite" => paper::run(ctx),
        "block_512" => block::run(ctx),
        "program_4k" => program::run(ctx, program::Tier::LoopNest4k),
        "program_trace" => program::run(ctx, program::Tier::Trace2k),
        "server_mix" => server::run(ctx),
        _ => return None,
    })
}
