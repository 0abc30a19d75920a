//! One uniform counters surface: [`StatsSnapshot`] packages the pipeline
//! stage timings ([`PipelineStats`], which embeds the solver's
//! [`SolverStats`](lemra_netflow::SolverStats) counters) behind a single
//! `collect` + `render` pair.
//!
//! Every counter is always on; `--timings` only decides whether a driver
//! prints the block. All four drivers — `repro`, `wholeprogram`, `lemra`
//! and `lemra-server` — format this one snapshot. The rendering below is
//! pinned byte-for-byte by a regression test so the drivers' `--timings`
//! blocks cannot drift apart.

use crate::pipeline::{pipeline_stats, PipelineStats, Stage};
use std::fmt::Write as _;

/// A point-in-time copy of every process-wide counter the pipeline keeps:
/// per-stage timings, solver effort and incidents.
///
/// # Examples
///
/// ```
/// use lemra_core::StatsSnapshot;
///
/// let snapshot = StatsSnapshot::collect();
/// assert!(snapshot.render_timings().starts_with("-- pipeline stage timings --"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Stage timings, solve counts and solver counters of every dropped
    /// [`PipelineCx`](crate::PipelineCx).
    pub pipeline: PipelineStats,
}

impl StatsSnapshot {
    /// Snapshots the process-wide stats registry.
    pub fn collect() -> Self {
        StatsSnapshot {
            pipeline: pipeline_stats(),
        }
    }

    /// The `--timings` stderr block: the stage table and the solves line.
    /// Each line is `\n`-terminated; print with `eprint!`, not
    /// `eprintln!`.
    pub fn render_timings(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "-- pipeline stage timings --");
        let _ = writeln!(
            out,
            "  {:<10} {:>7} {:>12} {:>12}",
            "stage", "runs", "total ms", "peak KiB"
        );
        for stage in Stage::ALL {
            let t = self.pipeline.stage(stage);
            let _ = writeln!(
                out,
                "  {:<10} {:>7} {:>12.3} {:>12.1}",
                stage.name(),
                t.runs,
                t.nanos as f64 / 1e6,
                t.bytes as f64 / 1024.0
            );
        }
        let _ = writeln!(
            out,
            "  solves: {} warm, {} cold, {} reused; {} dijkstra rounds, {} units pushed, \
             {} incidents",
            self.pipeline.warm_solves,
            self.pipeline.cold_solves,
            self.pipeline.reused_answers,
            self.pipeline.solver.dijkstra_rounds,
            self.pipeline.solver.pushed_units,
            self.pipeline.solver.incidents
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the rendering byte-for-byte, so the drivers that print this one
    /// snapshot can never drift apart.
    #[test]
    fn render_timings_format_is_pinned() {
        let zero = StatsSnapshot::default();
        let expected = "\
-- pipeline stage timings --
  stage         runs     total ms     peak KiB
  segment          0        0.000          0.0
  profile          0        0.000          0.0
  build            0        0.000          0.0
  solve            0        0.000          0.0
  bind             0        0.000          0.0
  validate         0        0.000          0.0
  solves: 0 warm, 0 cold, 0 reused; 0 dijkstra rounds, 0 units pushed, 0 incidents
";
        assert_eq!(zero.render_timings(), expected);
    }

    #[test]
    fn render_timings_carries_the_counters() {
        let mut snapshot = StatsSnapshot::default();
        snapshot.pipeline.warm_solves = 3;
        snapshot.pipeline.cold_solves = 2;
        snapshot.pipeline.reused_answers = 4;
        snapshot.pipeline.solver.incidents = 1;
        let text = snapshot.render_timings();
        assert!(text.contains("solves: 3 warm, 2 cold, 4 reused;"));
        assert!(text.contains("1 incidents"));
    }
}
