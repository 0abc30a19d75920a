//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p lemra-bench --bin repro            # everything
//! cargo run -p lemra-bench --bin repro -- figure3
//! cargo run -p lemra-bench --bin repro -- table1 --json
//! ```
//!
//! The requested sections are computed through
//! [`par_map`](lemra_bench::parallel::par_map) (they share nothing but the
//! process-wide stats registry) and printed in their fixed order
//! afterwards, so the output is identical to running them one by one;
//! `LEMRA_THREADS=1` runs them serially, in that order, on the main thread.
//!
//! `--timings` additionally prints the per-stage pipeline timings and
//! solver counters, which are always collected, to **stderr** (stdout —
//! including `--json` — is byte-identical with or without the flag).
//! `--backend <ssp|cost_scaling|auto>` overrides the solver backend (same
//! values as `LEMRA_BACKEND`, which it takes precedence over); every
//! backend reaches the same optimal objectives, and tie-broken sections
//! commit identical allocations.

use lemra_bench::experiments::{
    run_figure3, run_figure4, run_headline, run_offchip, run_sizing, run_table1, Figure3Result,
    Figure4Result, HeadlineRow, OffchipRow, Row, SizingRow, Table1Row,
};
use lemra_bench::parallel::par_map;
use lemra_netflow::LemraConfig;

/// One computed section of the report.
enum Section {
    Figure3(Figure3Result),
    Figure4(Figure4Result),
    Table1(Vec<Table1Row>),
    Headline(Vec<HeadlineRow>),
    Offchip(Vec<OffchipRow>),
    Sizing(Vec<SizingRow>),
}

/// Computes one section.
type Run = fn() -> Section;

/// Every section by name, in print order.
const SECTIONS: [(&str, Run); 6] = [
    ("figure3", || Section::Figure3(run_figure3())),
    ("figure4", || Section::Figure4(run_figure4())),
    ("table1", || Section::Table1(run_table1())),
    ("headline", || Section::Headline(run_headline())),
    ("offchip", || Section::Offchip(run_offchip())),
    ("sizing", || Section::Sizing(run_sizing())),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let timings = args.iter().any(|a| a == "--timings");
    let base = LemraConfig::from_env().unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    // `--backend x` or `--backend=x`, overriding LEMRA_BACKEND.
    let mut backend = base.backend;
    for (i, a) in args.iter().enumerate() {
        let value = if a == "--backend" {
            args.get(i + 1).cloned().unwrap_or_default()
        } else if let Some(v) = a.strip_prefix("--backend=") {
            v.to_string()
        } else {
            continue;
        };
        backend = value.parse().unwrap_or_else(|e| {
            eprintln!("repro: --backend: {e}");
            std::process::exit(2);
        });
    }
    LemraConfig { backend, ..base }.install();
    let which: Vec<&str> = args
        .iter()
        .enumerate()
        // Skip flags and the value consumed by a space-separated
        // `--backend`.
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1] != "--backend"))
        .map(|(_, a)| a.as_str())
        .collect();
    let all = which.is_empty() || which.contains(&"all");
    let wanted: Vec<Run> = SECTIONS
        .into_iter()
        .filter(|(name, _)| all || which.contains(name))
        .map(|(_, run)| run)
        .collect();

    for section in par_map(wanted, |run| run()) {
        match section {
            Section::Figure3(r) => figure3(&r, json),
            Section::Figure4(r) => figure4(&r, json),
            Section::Table1(rows) => table1(&rows, json),
            Section::Headline(rows) => headline(&rows, json),
            Section::Offchip(rows) => offchip(&rows, json),
            Section::Sizing(rows) => sizing(&rows, json),
        }
    }
    if timings {
        // One shared snapshot renders this block on stderr, so `--json`
        // consumers of stdout are unaffected; its format is pinned by a
        // regression test because CI greps these lines.
        eprint!("{}", lemra_core::StatsSnapshot::collect().render_timings());
    }
}

fn print_rows(rows: &[&Row]) {
    println!(
        "  {:<32} {:>7} {:>7} {:>6} {:>5} {:>8} {:>8} {:>9} {:>9}",
        "solution", "mem", "reg", "locs", "regs", "regSw", "memSw", "E", "aE"
    );
    for r in rows {
        println!(
            "  {:<32} {:>7} {:>7} {:>6} {:>5} {:>8.2} {:>8.2} {:>9.2} {:>9.2}",
            r.label,
            r.mem_accesses,
            r.reg_accesses,
            r.storage_locations,
            r.registers_used,
            r.register_switching,
            r.memory_switching,
            r.static_energy,
            r.activity_energy
        );
    }
}

fn figure3(r: &Figure3Result, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(&r).expect("serialises"));
        return;
    }
    println!("== Figure 3: partition-after-allocation vs simultaneous (R = 1) ==");
    println!(
        "  phase-1 total switching (paper: 2.4): {:.2}",
        r.phase1_switching
    );
    print_rows(&[&r.two_phase, &r.simultaneous]);
    println!(
        "  improvement: static {:.2}x (paper 1.4x)  activity {:.2}x (paper 1.3x)  memory switching {:.2}x (paper 1.5x)",
        r.static_improvement, r.activity_improvement, r.memory_switching_improvement
    );
    println!();
}

fn figure4(r: &Figure4Result, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(&r).expect("serialises"));
        return;
    }
    println!("== Figure 4: all-pairs graph vs region graph with split lifetimes (R = 1) ==");
    print_rows(&[&r.a, &r.b, &r.c]);
    println!(
        "  (c) vs (a) energy improvement: {:.2}x (paper 1.35x)",
        r.improvement_c_over_a
    );
    println!("  -- minimum-storage-locations property, isolated --");
    print_rows(&[&r.storage_all_pairs, &r.storage_regions]);
    println!();
}

fn table1(rows: &[Table1Row], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialises")
        );
        return;
    }
    println!("== Table 1: RSP application, memory frequency sweep (R = 16, density 26) ==");
    println!(
        "  {:<6} {:>6} {:>6} {:>8} {:>8} {:>7} {:>10} {:>10}",
        "freq", "c", "volts", "mem", "reg", "ports", "relE", "relAE"
    );
    for r in rows {
        println!(
            "  {:<6} {:>6} {:>6.1} {:>8} {:>8} {:>4}r{}w {:>10.2} {:>10.2}",
            r.frequency,
            r.period,
            r.volts,
            r.mem_accesses,
            r.reg_accesses,
            r.mem_ports.0,
            r.mem_ports.1,
            r.relative_e,
            r.relative_ae
        );
    }
    println!("  paper rows:      mem 6/7/8, reg 12/11/10, relE 4.9/2/1, relAE 2.8/1.6/1");
    println!();
}

fn offchip(rows: &[OffchipRow], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialises")
        );
        return;
    }
    println!("== Supplementary: off-chip tiering projection (RSP, R = 8) ==");
    println!(
        "  {:<9} {:>7} {:>8} {:>12} {:>9}",
        "capacity", "onchip", "offchip", "energy", "saving"
    );
    for r in rows {
        println!(
            "  {:<9} {:>7} {:>8} {:>12.1} {:>8.2}x",
            r.capacity, r.onchip_vars, r.offchip_vars, r.tiered_energy, r.saving_factor
        );
    }
    println!("  (§7: \"significantly larger savings … applied to offchip memory\")");
    println!();
}

fn sizing(rows: &[SizingRow], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialises")
        );
        return;
    }
    println!("== Supplementary: register-file sizing, geometry-derived energies (RSP) ==");
    println!(
        "  {:<5} {:>6} {:>9} {:>6} {:>10}",
        "R", "words", "regRead", "mem", "E"
    );
    for r in rows {
        println!(
            "  {:<5} {:>6} {:>9.2} {:>6} {:>10.1}",
            r.registers, r.array_words, r.reg_read_energy, r.mem_accesses, r.static_energy
        );
    }
    println!(
        "  (the knee sits at the max lifetime density, 26: extra registers past it buy nothing)"
    );
    println!();
}

fn headline(rows: &[HeadlineRow], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialises")
        );
        return;
    }
    println!("== Headline: simultaneous vs previous research (paper: 1.4x - 2.5x) ==");
    println!(
        "  {:<10} {:<20} {:>10} {:>10}",
        "workload", "baseline", "E ratio", "aE ratio"
    );
    for r in rows {
        println!(
            "  {:<10} {:<20} {:>10.2} {:>10.2}",
            r.workload, r.baseline, r.static_ratio, r.activity_ratio
        );
    }
    let min = rows
        .iter()
        .map(|r| r.static_ratio)
        .fold(f64::INFINITY, f64::min);
    let max = rows.iter().map(|r| r.static_ratio).fold(0.0, f64::max);
    println!("  static-energy improvement band: {min:.2}x - {max:.2}x");
    println!();
}
