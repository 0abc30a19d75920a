//! One uniform counters surface: [`StatsSnapshot`] packages the pipeline
//! stage timings ([`PipelineStats`], which embeds the solver's
//! [`SolverStats`](lemra_netflow::SolverStats) counters) together with the
//! cross-request cache counters ([`CacheStats`]) behind a single `collect`
//! + `render` pair.
//!
//! Every counter is always on; `--timings` only decides whether a driver
//! prints the block. All four drivers — `repro`, `wholeprogram`, `lemra`
//! and `lemra-server` — format this one snapshot, as does the server's
//! admin endpoint. The rendering below is pinned byte-for-byte by a
//! regression test because CI greps the `repro --timings` stderr lines.

use crate::cache::{cache_stats, CacheStats};
use crate::pipeline::{pipeline_stats, PipelineStats, Stage};
use std::fmt::Write as _;

/// A point-in-time copy of every process-wide counter the pipeline keeps:
/// per-stage timings, solver effort, incidents and cache traffic.
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
    /// Cross-request allocation cache counters.
    pub cache: CacheStats,
}

impl StatsSnapshot {
    /// Snapshots the process-wide stats registry and cache counters.
    pub fn collect() -> Self {
        StatsSnapshot {
            pipeline: pipeline_stats(),
            cache: cache_stats(),
        }
    }

    /// The `--timings` stderr block, exactly as `repro` has always printed
    /// it: the stage table, the solves line, the cache line. Each line is
    /// `\n`-terminated; print with `eprint!`, not `eprintln!`.
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
            "  solves: {} warm, {} cold; {} dijkstra rounds, {} units pushed, {} incidents",
            self.pipeline.warm_solves,
            self.pipeline.cold_solves,
            self.pipeline.solver.dijkstra_rounds,
            self.pipeline.solver.pushed_units,
            self.pipeline.solver.incidents
        );
        let _ = writeln!(
            out,
            "  cache: {} exact hits, {} warm hits, {} misses, {} insertions, {} evictions; \
             {} exact + {} warm entries resident",
            self.cache.exact_hits,
            self.cache.warm_hits,
            self.cache.misses,
            self.cache.insertions,
            self.cache.evictions,
            self.cache.exact_entries,
            self.cache.warm_entries
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI's cache-determinism and cache-fault jobs grep the `--timings`
    /// stderr lines; this pins the rendering byte-for-byte so routing the
    /// three old call sites through one snapshot can never drift them.
    #[test]
    fn render_timings_format_is_pinned() {
        let zero = StatsSnapshot::default();
        let expected = "\
-- pipeline stage timings --
  stage         runs     total ms     peak KiB
  segment          0        0.000          0.0
  profile          0        0.000          0.0
  build            0        0.000          0.0
  canon            0        0.000          0.0
  solve            0        0.000          0.0
  bind             0        0.000          0.0
  validate         0        0.000          0.0
  solves: 0 warm, 0 cold; 0 dijkstra rounds, 0 units pushed, 0 incidents
  cache: 0 exact hits, 0 warm hits, 0 misses, 0 insertions, 0 evictions; \
0 exact + 0 warm entries resident
";
        assert_eq!(zero.render_timings(), expected);
    }

    #[test]
    fn render_timings_carries_the_counters() {
        let mut snapshot = StatsSnapshot::default();
        snapshot.pipeline.warm_solves = 3;
        snapshot.pipeline.cold_solves = 2;
        snapshot.pipeline.solver.incidents = 1;
        snapshot.cache.exact_hits = 7;
        let text = snapshot.render_timings();
        assert!(text.contains("solves: 3 warm, 2 cold;"));
        assert!(text.contains("1 incidents"));
        assert!(text.contains("cache: 7 exact hits,"));
    }
}
