//! `paper_suite`: the paper's own evaluation, the six `repro` sections in
//! sequence on one thread. Many tiny instances and the warm sweeps of
//! Table 1 and the sizing study, so per-call overhead and warm repair
//! dominate and no large solve runs.

use crate::measure::{
    closed_loop, closed_loop_metrics, compose_metrics, energy_total, golden_check, layer_metrics,
    set_up, simulate_check, trace_instance, Ctx, Outcome, Tracer,
};
use crate::stats::median;
use lemra_bench::experiments::{
    run_figure3, run_figure4, run_headline, run_offchip, run_sizing, run_table1, Figure3Result,
    Figure4Result, HeadlineRow, OffchipRow, SizingRow, Table1Row,
};
use lemra_core::{allocate, AllocationProblem, AllocationReport, GraphStyle};
use lemra_energy::RegisterEnergyKind;
use lemra_ir::{asap, LifetimeTable};
use lemra_workloads::paper_examples::{figure3, figure4};
use lemra_workloads::random::random_patterns;
use lemra_workloads::rsp::{rsp, RspConfig};
use std::time::Instant;

struct Suite {
    figure3: Figure3Result,
    figure4: Figure4Result,
    table1: Vec<Table1Row>,
    headline: Vec<HeadlineRow>,
    offchip: Vec<OffchipRow>,
    sizing: Vec<SizingRow>,
}

/// One op: the sections in `repro`'s order, each a span when traced.
fn run_suite(mut tr: Option<&mut Tracer>) -> Suite {
    fn section<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: fn() -> T) -> T {
        match tr {
            Some(tr) => tr.span(name, 0, f),
            None => f(),
        }
    }
    Suite {
        figure3: section(&mut tr, "experiments.figure3", run_figure3),
        figure4: section(&mut tr, "experiments.figure4", run_figure4),
        table1: section(&mut tr, "experiments.table1", run_table1),
        headline: section(&mut tr, "experiments.headline", run_headline),
        offchip: section(&mut tr, "experiments.offchip", run_offchip),
        sizing: section(&mut tr, "experiments.sizing", run_sizing),
    }
}

/// Exactly what `repro --json` prints for the same sections.
fn render(s: &Suite) -> String {
    use serde_json::to_string_pretty as pretty;
    let sections = [
        pretty(&s.figure3),
        pretty(&s.figure4),
        pretty(&s.table1),
        pretty(&s.headline),
        pretty(&s.offchip),
        pretty(&s.sizing),
    ];
    let mut out = String::new();
    for json in sections {
        out.push_str(&json.expect("experiment rows serialise"));
        out.push('\n');
    }
    out
}

/// The headline comparison's workloads as the allocator sees them: the
/// paper's figures, the DSP kernels and the radar kernel, each on the
/// all-pairs graph under the activity model.
fn instances() -> Vec<AllocationProblem> {
    let mut tables = Vec::new();
    let fig3 = figure3();
    tables.push((fig3.lifetimes, fig3.activity, fig3.registers));
    let fig4 = figure4();
    tables.push((fig4.lifetimes, fig4.activity, fig4.registers));
    for block in [
        lemra_workloads::dsp::fir(8),
        lemra_workloads::dsp::iir_biquad(2),
        lemra_workloads::dsp::elliptic_cascade(),
    ] {
        let block = block.expect("DSP kernels build");
        let schedule = asap(&block).expect("DSP kernels schedule");
        let table = LifetimeTable::from_schedule(&block, &schedule).expect("valid schedule");
        let n = table.len();
        tables.push((table, random_patterns(n, 42), 4));
    }
    let radar = rsp(&RspConfig::default());
    tables.push((radar.lifetimes, radar.activity, 16));
    tables
        .into_iter()
        .map(|(table, activity, registers)| {
            AllocationProblem::new(table, registers)
                .with_activity(activity)
                .with_style(GraphStyle::AllPairs)
                .with_register_energy(RegisterEnergyKind::Activity)
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((reference, problems), setup_s) = set_up(ctx, || (render(&run_suite(None)), instances()));
    let same_as_reference = |suite: &Suite| {
        if render(suite) == reference {
            Ok(())
        } else {
            Err("paper_suite: output differs from the first op's".to_owned())
        }
    };

    let latencies = closed_loop(ctx.untraced_seconds(), &mut out, |_| {
        let t0 = Instant::now();
        let suite = run_suite(None);
        (t0.elapsed(), same_as_reference(&suite))
    });

    if ctx.trace {
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut counts = Vec::new();
        let start = Instant::now();
        let mut op = 0;
        while op == 0 || start.elapsed().as_secs_f64() < ctx.traced_seconds() {
            tr.begin_op(op, "paper_suite.op");
            tr.enter("paper_suite.compose", 0);
            let suite = run_suite(Some(&mut tr));
            tr.exit();
            counts.clear();
            for (i, p) in problems.iter().enumerate() {
                match trace_instance(&mut tr, i, p) {
                    Ok(c) => counts.push(c),
                    Err(e) => out.fail(format!("paper_suite instance {i}: {e}")),
                }
            }
            tr.end_op();
            out.op(same_as_reference(&suite));
            op += 1;
        }
        for (metric, span) in [
            ("experiments.figure3_ms", "experiments.figure3"),
            ("experiments.figure4_ms", "experiments.figure4"),
            ("experiments.table1_ms", "experiments.table1"),
            ("experiments.headline_ms", "experiments.headline"),
            ("experiments.offchip_ms", "experiments.offchip"),
            ("experiments.sizing_ms", "experiments.sizing"),
        ] {
            out.metric(metric, median(&tr.ms(span)));
        }
        let allocate_ms = layer_metrics(&mut out, &tr, &counts, 1.0);
        compose_metrics(
            &mut out,
            &tr.ms("paper_suite.compose"),
            allocate_ms,
            median(&latencies),
        );
        out.spans = tr.spans;
    } else {
        closed_loop_metrics(&mut out, setup_s, &latencies);
    }

    // Oracles, outside the timed windows. The suite takes no seed, so its
    // golden file applies at every seed.
    if let Some(golden) = ctx.golden_file("repro.json", true) {
        out.check(golden_check("paper_suite", golden, &reference));
    }
    let mut reports = Vec::new();
    for (i, p) in problems.iter().enumerate() {
        let what = format!("paper_suite instance {i}");
        match allocate(p) {
            Ok(a) => {
                let report = AllocationReport::new(p, &a);
                out.check(simulate_check(&what, p, &a, &report));
                reports.push(report);
            }
            Err(e) => out.fail(format!("{what}: {e}")),
        }
    }
    if !ctx.trace {
        out.metric("energy_total", energy_total(&reports));
    }
    out
}
