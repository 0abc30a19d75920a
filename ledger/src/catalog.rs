//! Every metric the ledger emits: name, unit and which direction is better.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metrics `BENCHMARK.json` lists,
//! in the same order; the regression bounds live only in that file. The
//! [`EXTRA`] metrics are printed by `ledger run` and `ledger trace` but are
//! not part of the benchmark contract, because they are zero in a healthy
//! run (`fail_ratio`), exist for one workload only (`max_rate_rps` and the
//! workload-specific layers), are a sample count, or drift between
//! sessions on a shared two-core host by more than any bound the contract
//! allows (`latency_p95_ms`).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The value repeats exactly for a given seed and program (an energy,
    /// a count of failures or a rate step), so any worsening counts.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of each workload sees, measured with tracing off.
pub const END_TO_END: &[Spec] = &[
    timed("setup_s", "s", Lower),
    timed("ops_per_s", "1/s", Higher),
    timed("latency_p50_ms", "ms", Lower),
    timed("peak_rss_mib", "MiB", Lower),
    exact("energy_total", "energy_units", Lower),
];

/// Layer metrics every workload reports from its traced run, taken over
/// the distinct block instances one op allocates.
pub const PER_LAYER: &[Spec] = &[
    timed("core.segment_ms", "ms", Lower),
    timed("core.build_ms", "ms", Lower),
    exact("core.build_arcs", "count", Lower),
    exact("core.build_bytes", "bytes", Lower),
    timed("netflow.solve_ms", "ms", Lower),
    exact("netflow.dijkstra_rounds", "count", Lower),
    exact("netflow.pushed_units", "count", Lower),
    timed("netflow.solve_ssp_ref_ms", "ms", Lower),
    timed("netflow.solve_auto_ms", "ms", Lower),
    timed("core.bind_ms", "ms", Lower),
    timed("core.report_ms", "ms", Lower),
    timed("core.allocate_ms", "ms", Lower),
    timed("op.compose_ms", "ms", Lower),
    timed("op.residual_ms", "ms", Lower),
    timed("trace.overhead_pct", "%", Lower),
];

/// Metrics outside the benchmark contract.
pub const EXTRA: &[Spec] = &[
    timed("latency_p95_ms", "ms", Lower),
    exact("fail_ratio", "ratio", Lower),
    exact("max_rate_rps", "1/s", Higher),
    exact("samples", "count", Higher),
    exact("netflow.auto_excess_cost", "cost", Lower),
    timed("experiments.figure3_ms", "ms", Lower),
    timed("experiments.figure4_ms", "ms", Lower),
    timed("experiments.table1_ms", "ms", Lower),
    timed("experiments.headline_ms", "ms", Lower),
    timed("experiments.offchip_ms", "ms", Lower),
    timed("experiments.sizing_ms", "ms", Lower),
    timed("multiblock.chain_ms", "ms", Lower),
    timed("multiblock.serial_chain_ms", "ms", Lower),
    timed("multiblock.cold_blocks_ms", "ms", Lower),
    timed("multiblock.payoff", "ratio", Higher),
    timed("realloc_ms", "ms", Lower),
    timed("program.residual_ms", "ms", Lower),
    timed("server.client_ms", "ms", Lower),
    timed("server.compute_ms", "ms", Lower),
    timed("server.wire_ms", "ms", Lower),
    timed("server.transport_queue_ms", "ms", Lower),
    timed("server.transport_share_pct", "%", Lower),
    timed("server.saturated_client_ms", "ms", Lower),
    timed("server.saturated_transport_pct", "%", Lower),
    timed("server.side_p50_us", "us", Lower),
    exact("server.shed", "count", Lower),
    exact("server.incidents", "count", Lower),
    timed("server.gen_lag_ms", "ms", Lower),
];

/// The catalog entry of `name`.
pub fn lookup(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(EXTRA)
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn benchmark_json_lists_exactly_the_contract_metrics() {
        let file = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (section, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = file.get(section).unwrap().as_arr();
            assert_eq!(listed.len(), specs.len(), "{section}");
            for (m, s) in listed.iter().zip(specs) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(s.name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(s.unit));
                let better = match s.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
            }
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).chain(EXTRA).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(
                s.name.len() <= 64
                    && s.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && s.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{}",
                s.name
            );
            assert!(s.unit.len() <= 16, "{}", s.unit);
            assert!(
                all[..i].iter().all(|o| o.name != s.name),
                "duplicate {}",
                s.name
            );
        }
    }
}
