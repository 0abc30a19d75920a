//! Whole-program allocation driver: runs a `lemra-workloads` tier chain
//! through [`allocate_program`] and prints a deterministic per-block digest.
//!
//! ```text
//! cargo run -p lemra-bench --bin wholeprogram -- --tier 4k
//! cargo run -p lemra-bench --bin wholeprogram -- --tier trace --timings
//! ```
//!
//! Stdout is the digest. The warm chain walk commits exactly what a cold
//! solve of every block does (the `wholeprogram_determinism` tests check
//! this), so at the default seed the block lines of the 4k and trace tiers
//! equal the committed `ledger/golden/program_{4k,trace}.digest` (the CI
//! `wholeprogram-smoke` job compares them); `--timings` prints the
//! per-stage timing and peak-byte counters, always collected, on stderr.

use lemra_core::{allocate_program, BlockChain};
use lemra_netflow::LemraConfig;
use lemra_workloads::wholeprogram::{loop_nest, min_reg_trace, LoopNestConfig, MinRegTraceConfig};

const USAGE: &str = "usage: wholeprogram [--tier 1k|4k|8k|trace] [--seed S] [--timings]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let timings = args.iter().any(|a| a == "--timings");
    let mut tier = "4k".to_owned();
    let mut seed = 42u64;
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| panic!("{name} needs a value\n{USAGE}"))
        };
        match a.as_str() {
            "--tier" => tier = value("--tier"),
            "--seed" => seed = value("--seed").parse().expect("--seed: not a number"),
            "--timings" | "--help" | "-h" => {}
            other => {
                eprintln!("wholeprogram: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    LemraConfig::from_env()
        .unwrap_or_else(|e| {
            eprintln!("wholeprogram: {e}");
            std::process::exit(2);
        })
        .install();

    let chain: BlockChain = match tier.as_str() {
        "1k" => loop_nest(&LoopNestConfig::tier_1k(seed)),
        "4k" => loop_nest(&LoopNestConfig::tier_4k(seed)),
        "8k" => loop_nest(&LoopNestConfig::tier_8k(seed)),
        "trace" => min_reg_trace(&MinRegTraceConfig::tier_2k(seed)),
        other => {
            eprintln!("wholeprogram: unknown tier `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let total_vars: usize = chain.blocks.iter().map(|b| b.lifetimes.len()).sum();

    let t0 = std::time::Instant::now();
    let program = allocate_program(&chain).unwrap_or_else(|e| {
        eprintln!("wholeprogram: {e}");
        std::process::exit(1);
    });
    let elapsed = t0.elapsed();

    println!(
        "wholeprogram tier={tier} blocks={} vars={total_vars}",
        chain.blocks.len()
    );
    for (i, report) in program.chain.reports.iter().enumerate() {
        let problem = &program.chain.problems[i];
        println!(
            "block {i:>3}: regs={} mem_rw={}/{} reg_rw={}/{} carried_reg={} carried_mem={} \
             static={:.3} activity={:.3} addrs={}",
            report.registers_used,
            report.mem_reads,
            report.mem_writes,
            report.reg_reads,
            report.reg_writes,
            problem.carried_in_register.len(),
            problem.carried_in_memory.len(),
            report.static_energy,
            report.activity_energy,
            program.realloc[i].locations,
        );
    }
    println!(
        "total: static={:.3} activity={:.3} mem_accesses={} switching={:.3}",
        program.chain.total_static_energy(),
        program.chain.total_activity_energy(),
        program.chain.total_mem_accesses(),
        program.total_switching(),
    );

    // Wall-clock and throughput go to stderr: they vary run to run, stdout
    // must not.
    eprintln!(
        "e2e: {:.3} ms, {:.1} blocks/s",
        elapsed.as_secs_f64() * 1e3,
        chain.blocks.len() as f64 / elapsed.as_secs_f64()
    );
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(hwm) = status.lines().find(|l| l.starts_with("VmHWM")) {
            eprintln!("{hwm}");
        }
    }
    if timings {
        // Same shared snapshot as `repro --timings` and the server's admin
        // endpoint (stdout stays byte-identical; this is stderr).
        eprint!("{}", lemra_core::StatsSnapshot::collect().render_timings());
    }
}
