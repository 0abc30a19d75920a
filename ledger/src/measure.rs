//! What every workload shares: the run context, the outcome it reports,
//! set-up repetition, the closed measurement loop, in-memory spans, and the
//! per-instance layer calls and oracle checks.

use crate::json::Json;
use crate::stats::{median, percentile};
use lemra_core::{
    allocate, build_network, Allocation, AllocationProblem, AllocationReport, Segmentation,
};
use lemra_netflow::{thread_solver_stats, Backend, LemraConfig, ResilientSolver};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed the golden files were recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// One workload run, as the child process was asked to do it.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window (split 1:2 between the untraced
    /// reference loop and the traced loop when `trace` is set).
    pub seconds: f64,
    pub trace: bool,
    /// One set-up instead of three and short rate steps: the smoke pass.
    pub quick: bool,
    pub golden: PathBuf,
    /// Where the traced run writes its spans, one JSON object a line.
    pub spans: Option<PathBuf>,
}

impl Ctx {
    fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// The untraced loop's window: all of it, or the first third in a
    /// traced run, whose untraced p50 is the base of `trace.overhead_pct`.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 3.0
        } else {
            self.seconds
        }
    }

    /// The traced loop's window: what the untraced loop leaves.
    pub fn traced_seconds(&self) -> f64 {
        self.seconds - self.untraced_seconds()
    }

    /// Reads a golden file when this run's inputs are the ones it was
    /// recorded from; `None` otherwise.
    pub fn golden_file(&self, name: &str, applies: bool) -> Option<Result<String, String>> {
        applies.then(|| {
            let path = self.golden.join(name);
            std::fs::read_to_string(&path).map_err(|e| format!("golden {}: {e}", path.display()))
        })
    }
}

/// What one workload run reports back to the parent process.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle and output mismatches; any entry makes the run incorrect.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub info: Vec<(String, Json)>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a metric; the name must be in the catalog.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::catalog::lookup(name).is_some(), "{name}");
        self.metrics.push((name, value));
    }

    pub fn fail(&mut self, what: String) {
        // Keep the result line short when something fails wholesale.
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Records an oracle verdict.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.fail(e);
        }
    }

    /// Counts one op and its output check.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.fail(e);
        }
    }
}

/// Runs `setup` several times and returns the last result with the median
/// set-up time in seconds. The previous result is dropped before each
/// repetition, so a workload holding a server stops it first.
pub fn set_up<T>(ctx: &Ctx, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..ctx.setup_reps() {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Closed loop with one caller: runs `op` until `seconds` have passed
/// (at least once). `op` times its own call, so output checks stay outside
/// the timed window, and returns the elapsed time and the check verdict.
/// Returns the latencies in milliseconds.
pub fn closed_loop(
    seconds: f64,
    out: &mut Outcome,
    mut op: impl FnMut(u64) -> (Duration, Result<(), String>),
) -> Vec<f64> {
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let (elapsed, verdict) = op(i);
        latencies.push(elapsed.as_secs_f64() * 1e3);
        out.op(verdict);
        i += 1;
    }
    latencies
}

/// `latency_p50_ms`, `latency_p95_ms` and `samples` of a latency sample.
pub fn latency_metrics(out: &mut Outcome, latencies_ms: &[f64]) {
    out.metric("latency_p50_ms", median(latencies_ms));
    out.metric("latency_p95_ms", percentile(latencies_ms, 95.0));
    out.metric("samples", latencies_ms.len() as f64);
}

/// The end-to-end metrics of a closed loop, energy aside. Throughput is
/// ops over the time spent inside them.
pub fn closed_loop_metrics(out: &mut Outcome, setup_s: f64, latencies_ms: &[f64]) {
    out.metric("setup_s", setup_s);
    let busy_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    out.metric("ops_per_s", latencies_ms.len() as f64 / busy_s);
    latency_metrics(out, latencies_ms);
    out.metric("peak_rss_mib", peak_rss_mib());
}

/// The process's peak resident set (`VmHWM`) in MiB, NaN where the kernel
/// does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Static energy summed over reports.
pub fn energy_total(reports: &[AllocationReport]) -> f64 {
    reports.iter().map(|r| r.static_energy).sum()
}

// ---- spans -----------------------------------------------------------------

/// One timed call. Op spans have no parent; every span opened while an op
/// span is open shares its op id and names the innermost open span as
/// parent.
pub struct Span {
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Index of the block instance the call worked on (0 when not per
    /// instance).
    pub instance: usize,
    pub start: Duration,
    pub dur: Duration,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    op: u64,
    /// Open spans, innermost last: (id, name, instance, start).
    open: Vec<(u64, &'static str, usize, Instant)>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Span ids start above `id_base`, so recorders on different threads
    /// never collide.
    pub fn new(origin: Instant, id_base: u64) -> Self {
        Tracer {
            origin,
            next_id: id_base,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder over spans merged from other recorders, for reading.
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Tracer {
            spans,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: u64, name: &'static str) {
        assert!(self.open.is_empty(), "ops do not nest");
        self.op = op;
        self.enter(name, 0);
    }

    pub fn end_op(&mut self) {
        self.exit();
        assert!(self.open.is_empty(), "every layer span closed");
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, instance: usize) {
        self.next_id += 1;
        self.open
            .push((self.next_id, name, instance, Instant::now()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let (id, name, instance, t0) = self.open.pop().expect("a span is open");
        self.spans.push(Span {
            op: self.op,
            id,
            parent: self.open.last().map(|o| o.0),
            name,
            instance,
            start: t0 - self.origin,
            dur: t0.elapsed(),
        });
    }

    /// Times `f` as a span under the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, instance: usize, f: impl FnOnce() -> T) -> T {
        self.enter(name, instance);
        let value = f();
        self.exit();
        value
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.ms_where(name, |_| true)
    }

    fn ms_where(&self, name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Median duration of `name` per instance, summed over the instances.
    pub fn instance_median_sum(&self, name: &str, instances: usize) -> f64 {
        (0..instances)
            .map(|i| median(&self.ms_where(name, |s| s.instance == i)))
            .sum()
    }
}

/// Appends spans to `path` as JSON lines, each with its workload and its
/// self time: its duration minus the durations of its children.
pub fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut children: BTreeMap<u64, Duration> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.dur;
        }
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let covered = children.get(&s.id).copied().unwrap_or_default();
        let line = Json::obj([
            ("workload", Json::from(workload)),
            ("op", Json::from(s.op)),
            ("id", Json::from(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("name", Json::from(s.name)),
            ("instance", Json::from(s.instance as u64)),
            ("start_us", Json::Num(s.start.as_secs_f64() * 1e6)),
            ("dur_us", Json::Num(s.dur.as_secs_f64() * 1e6)),
            (
                "self_us",
                Json::Num(s.dur.saturating_sub(covered).as_secs_f64() * 1e6),
            ),
        ]);
        writeln!(w, "{line}")?;
    }
    w.flush()
}

// ---- the block-instance layers ---------------------------------------------

/// Counters of one instance's layer calls; they repeat exactly on every
/// traced op, so the last one is kept.
#[derive(Default, Clone, Copy)]
pub struct LayerCounts {
    pub arcs: u64,
    pub bytes: u64,
    pub dijkstra_rounds: u64,
    pub pushed_units: u64,
    /// How much costlier `Backend::Auto`'s flow was than the configured
    /// backend's on the same network (0 when both are optimal).
    pub auto_excess_cost: i64,
}

/// Times one instance's calls into each layer's public functions, the way
/// `allocate` composes them: segmentation, the network build (which
/// segments again), the configured resilient solve with the build's region
/// hints, the two counterfactual backends, the whole `allocate`, and the
/// report.
pub fn trace_instance(
    tr: &mut Tracer,
    instance: usize,
    problem: &AllocationProblem,
) -> Result<LayerCounts, String> {
    let target = i64::from(problem.registers);
    tr.span("core.segment", instance, || {
        Segmentation::new(&problem.lifetimes, &problem.split)
    });
    let view = tr
        .span("core.build_network", instance, || build_network(problem))
        .map_err(|e| format!("build_network: {e}"))?;
    let mut solver = ResilientSolver::new(LemraConfig::get().backend);
    solver.set_region_hints(Some(view.region_hints.clone()));
    let before = thread_solver_stats();
    let solved = tr
        .span("netflow.solve", instance, || {
            solver.solve(&view.net, view.source, view.sink, target)
        })
        .map_err(|e| format!("configured solve: {e}"))?;
    let effort = thread_solver_stats() - before;
    tr.span("netflow.solve_ssp_ref", instance, || {
        Backend::Ssp.solve(&view.net, view.source, view.sink, target)
    })
    .map_err(|e| format!("ssp solve: {e}"))?;
    let auto = tr
        .span("netflow.solve_auto", instance, || {
            Backend::Auto.solve(&view.net, view.source, view.sink, target)
        })
        .map_err(|e| format!("auto solve: {e}"))?;
    let allocation = tr
        .span("core.allocate", instance, || allocate(problem))
        .map_err(|e| format!("allocate: {e}"))?;
    tr.span("core.report", instance, || {
        AllocationReport::new(problem, &allocation)
    });
    Ok(LayerCounts {
        arcs: view.net.arc_count() as u64,
        bytes: view.net.heap_bytes() as u64,
        dijkstra_rounds: effort.dijkstra_rounds,
        pushed_units: effort.pushed_units,
        auto_excess_cost: auto.cost - solved.cost,
    })
}

/// The per-layer metrics over a workload's distinct instances, scaled to
/// one op: one op allocates `instances / per_op_divisor` of them (every
/// instance once for a program or the paper suite, one of four blocks for
/// `block_512`).
pub fn layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    counts: &[LayerCounts],
    per_op_divisor: f64,
) -> f64 {
    let n = counts.len();
    let sum = |name: &str| tr.instance_median_sum(name, n) / per_op_divisor;
    let count = |f: fn(&LayerCounts) -> i64| {
        counts.iter().map(|c| f(c) as f64).sum::<f64>() / per_op_divisor
    };
    let segment = sum("core.segment");
    let build_network = sum("core.build_network");
    let solve = sum("netflow.solve");
    let allocate_ms = sum("core.allocate");
    out.metric("core.segment_ms", segment);
    out.metric("core.build_ms", build_network - segment);
    out.metric("core.build_arcs", count(|c| c.arcs as i64));
    out.metric("core.build_bytes", count(|c| c.bytes as i64));
    out.metric("netflow.solve_ms", solve);
    out.metric(
        "netflow.dijkstra_rounds",
        count(|c| c.dijkstra_rounds as i64),
    );
    out.metric("netflow.pushed_units", count(|c| c.pushed_units as i64));
    out.metric("netflow.solve_ssp_ref_ms", sum("netflow.solve_ssp_ref"));
    out.metric("netflow.solve_auto_ms", sum("netflow.solve_auto"));
    out.metric("core.bind_ms", allocate_ms - build_network - solve);
    out.metric("core.report_ms", sum("core.report"));
    out.metric("core.allocate_ms", allocate_ms);
    out.metric(
        "netflow.auto_excess_cost",
        counts.iter().map(|c| c.auto_excess_cost as f64).sum(),
    );
    allocate_ms
}

/// `op.compose_ms`, `op.residual_ms` and `trace.overhead_pct`, from the
/// traced composed-op durations, the per-op `allocate` time of the
/// instances, and the untraced op p50.
pub fn compose_metrics(
    out: &mut Outcome,
    composed_ms: &[f64],
    allocate_ms: f64,
    untraced_p50: f64,
) {
    let compose = median(composed_ms);
    out.metric("op.compose_ms", compose);
    out.metric("op.residual_ms", compose - allocate_ms);
    out.metric("trace.overhead_pct", (compose / untraced_p50 - 1.0) * 100.0);
}

// ---- oracles ---------------------------------------------------------------

/// Executes the allocation on the simulated storage hardware, which checks
/// every read's value, and requires its access counts and static energy to
/// equal the analytic report's.
pub fn simulate_check(
    what: &str,
    problem: &AllocationProblem,
    allocation: &Allocation,
    report: &AllocationReport,
) -> Result<(), String> {
    let sim = lemra_simulator::simulate(problem, allocation)
        .map_err(|e| format!("{what}: simulator: {e}"))?;
    let counts = (sim.mem_reads, sim.mem_writes, sim.reg_reads, sim.reg_writes);
    let analytic = (
        report.mem_reads,
        report.mem_writes,
        report.reg_reads,
        report.reg_writes,
    );
    if counts != analytic {
        return Err(format!(
            "{what}: simulated accesses {counts:?} differ from the report's {analytic:?}"
        ));
    }
    let energy = sim.static_energy(&problem.energy);
    if (energy - report.static_energy).abs() > 1e-9 * report.static_energy.abs().max(1.0) {
        return Err(format!(
            "{what}: simulated static energy {energy} differs from the report's {}",
            report.static_energy
        ));
    }
    Ok(())
}

/// The allocation's flow against an independent algorithm: the configured
/// solve of the built network must reach the objective of Goldberg–Tarjan
/// cost scaling, and its segment arcs must carry exactly the allocation's
/// register placements.
pub fn flow_check(
    what: &str,
    problem: &AllocationProblem,
    allocation: &Allocation,
) -> Result<(), String> {
    let view = build_network(problem).map_err(|e| format!("{what}: build: {e}"))?;
    let target = i64::from(problem.registers);
    let mut solver = ResilientSolver::new(LemraConfig::get().backend);
    solver.set_region_hints(Some(view.region_hints.clone()));
    let solved = solver
        .solve(&view.net, view.source, view.sink, target)
        .map_err(|e| format!("{what}: configured solve: {e}"))?;
    let reference = Backend::CostScaling
        .solve(&view.net, view.source, view.sink, target)
        .map_err(|e| format!("{what}: cost scaling: {e}"))?;
    if solved.cost != reference.cost {
        return Err(format!(
            "{what}: flow objective {} differs from cost scaling's {}",
            solved.cost, reference.cost
        ));
    }
    let placed = view
        .segment_arc
        .iter()
        .zip(allocation.placements())
        .all(|(&arc, p)| (solved.flow(arc) == 1) == p.is_register());
    if !placed {
        return Err(format!(
            "{what}: register placements differ from the solved flow"
        ));
    }
    Ok(())
}

/// Compares an output with its golden file.
pub fn golden_check(
    name: &str,
    golden: Result<String, String>,
    actual: &str,
) -> Result<(), String> {
    let expected = golden?;
    if expected == actual {
        Ok(())
    } else {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || expected.lines().count().min(actual.lines().count()) + 1,
                |i| i + 1,
            );
        Err(format!(
            "{name}: output differs from the golden file at line {line}"
        ))
    }
}
