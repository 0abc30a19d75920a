//! Server-side counters and the latency histogram behind the admin
//! endpoint's `stats` command.
//!
//! Counters are plain relaxed atomics (every request touches them;
//! contention must stay negligible next to a solve). Latency lands in a
//! fixed power-of-two microsecond histogram, so p50/p99 are lock-cheap
//! upper-bound estimates, pelikan-style, not exact order statistics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const BUCKETS: usize = 40;

/// Power-of-two latency histogram: bucket `i` counts requests that took
/// less than `2^i` microseconds (and at least `2^(i-1)`).
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Upper bound of the bucket holding quantile `q` (0.0..=1.0), in µs.
    fn quantile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Everything the server counts, shared by the workers, connection
/// threads and the admin endpoint.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Request frames admitted for parsing (everything but pings).
    pub received: AtomicU64,
    /// Liveness probes answered.
    pub pings: AtomicU64,
    /// Requests answered [`Status::Ok`](crate::wire::Status::Ok).
    pub ok: AtomicU64,
    /// Payloads refused as unparseable.
    pub bad_request: AtomicU64,
    /// Frames refused for exceeding the payload cap.
    pub too_large: AtomicU64,
    /// Requests shed by admission control (queue at watermark).
    pub shed: AtomicU64,
    /// Requests whose deadline expired in queue or mid-solve.
    pub deadline: AtomicU64,
    /// Requests answered with a structured allocation error.
    pub alloc_failed: AtomicU64,
    /// Requests answered `Internal` after a contained panic.
    pub internal: AtomicU64,
    /// Frames refused because the server was draining.
    pub shutting_down: AtomicU64,
    /// Undecodable frames (bad magic/version/kind, truncation).
    pub bad_frames: AtomicU64,
    /// Connections accepted.
    pub conns_opened: AtomicU64,
    /// Connections torn down by injected `conn@…` faults.
    pub conn_killed: AtomicU64,
    /// Worker threads respawned by the supervisor after a panic escaped
    /// the per-request containment.
    pub worker_respawns: AtomicU64,
    /// Solver incidents absorbed across all workers' fallback chains.
    pub incidents: AtomicU64,
    latency: Mutex<LatencyHistogram>,
}

impl ServerMetrics {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_latency(&self, latency: Duration) {
        self.latency
            .lock()
            .expect("latency histogram poisoned")
            .record(latency);
    }

    /// (p50, p99) response latency upper bounds in microseconds.
    pub fn latency_quantiles_us(&self) -> (u64, u64) {
        let histo = self.latency.lock().expect("latency histogram poisoned");
        (histo.quantile_us(0.50), histo.quantile_us(0.99))
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Renders the admin `stats` reply: `STAT <name> <value>` lines,
    /// terminated by `END`.
    pub fn render_stats(&self, queue_depth: usize, workers: usize) -> String {
        use std::fmt::Write as _;
        let (p50, p99) = self.latency_quantiles_us();
        let mut out = String::new();
        let mut stat = |name: &str, value: u64| {
            let _ = writeln!(out, "STAT {name} {value}");
        };
        stat("requests_received", Self::get(&self.received));
        stat("pings", Self::get(&self.pings));
        stat("responses_ok", Self::get(&self.ok));
        stat("bad_request", Self::get(&self.bad_request));
        stat("too_large", Self::get(&self.too_large));
        stat("shed", Self::get(&self.shed));
        stat("deadline_exceeded", Self::get(&self.deadline));
        stat("alloc_failed", Self::get(&self.alloc_failed));
        stat("internal_errors", Self::get(&self.internal));
        stat("shutting_down", Self::get(&self.shutting_down));
        stat("bad_frames", Self::get(&self.bad_frames));
        stat("conns_opened", Self::get(&self.conns_opened));
        stat("conn_killed", Self::get(&self.conn_killed));
        stat("worker_respawns", Self::get(&self.worker_respawns));
        stat("incidents", Self::get(&self.incidents));
        #[cfg(feature = "fault-inject")]
        {
            stat("faults_injected", lemra_netflow::injected_fault_count());
            stat("conn_faults_injected", lemra_netflow::injected_conn_count());
        }
        stat("latency_p50_us", p50);
        stat("latency_p99_us", p99);
        stat("queue_depth", queue_depth as u64);
        stat("workers", workers as u64);
        out.push_str("END\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket < 128
        }
        h.record(Duration::from_micros(60_000)); // tail outlier
        assert_eq!(h.quantile_us(0.50), 128);
        assert!(h.quantile_us(0.99) <= 128);
        assert!(h.quantile_us(1.0) >= 65_536);
    }

    #[test]
    fn stats_render_has_the_grep_targets() {
        let m = ServerMetrics::default();
        ServerMetrics::bump(&m.ok);
        m.record_latency(Duration::from_millis(2));
        let text = m.render_stats(3, 4);
        assert!(text.contains("STAT responses_ok 1\n"));
        assert!(text.contains("STAT queue_depth 3\n"));
        assert!(text.contains("STAT workers 4\n"));
        assert!(text.contains("STAT incidents 0\n"));
        assert!(text.ends_with("END\n"));
    }
}
