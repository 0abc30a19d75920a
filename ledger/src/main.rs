//! `ledger`: lemra's layered performance ledger.
//!
//! ```text
//! ledger run     [--seed S] [--workload W]... [--seconds N] [--quick] [--out FILE] [--golden DIR]
//! ledger trace   [--seed S] [--workload W]... [--seconds N] [--quick] [--out FILE] [--golden DIR] [--spans FILE]
//! ledger bench   --workload W --seed S --seconds N --trace 0|1
//! ledger compare PARENT.json... -- CHANGE.json... [--benchmark FILE]
//! ```
//!
//! `run` measures each workload's end-to-end metrics, `trace` is the
//! separate traced run that times each layer, and `bench` is the one-line
//! JSON form of either that `BENCHMARK.json`'s command runs. Every workload
//! runs in its own child process (`ledger measure`) with every `LEMRA_*`
//! variable removed, so each has a clean configuration and its own peak
//! RSS. Every output is checked against an oracle; any mismatch makes the
//! exit status non-zero. `compare` applies the paired-run rule to results
//! files written with `--out`.

mod catalog;
mod compare;
mod json;
mod measure;
mod stats;
mod workloads;

use json::Json;
use measure::{Ctx, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Window length of `run` and `trace` when `--seconds` is not given; the
/// same as `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 1.0;

const USAGE: &str = "usage:
  ledger run     [--seed S] [--workload W]... [--seconds N] [--quick] [--out FILE] [--golden DIR]
  ledger trace   [--seed S] [--workload W]... [--seconds N] [--quick] [--out FILE] [--golden DIR] [--spans FILE]
  ledger bench   --workload W --seed S --seconds N --trace 0|1
  ledger compare PARENT.json... -- CHANGE.json... [--benchmark FILE]";

fn default_golden() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"))
}

/// Flags shared by the subcommands that run workloads.
struct Options {
    seed: u64,
    workloads: Vec<String>,
    seconds: Option<f64>,
    quick: bool,
    trace: Option<bool>,
    out: Option<PathBuf>,
    golden: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        workloads: Vec::new(),
        seconds: None,
        quick: false,
        trace: None,
        out: None,
        golden: default_golden(),
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a seed"))?;
            }
            "--workload" => {
                let w = value()?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (expected one of {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                o.workloads.push(w);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive duration"))?;
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                });
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--golden" => o.golden = PathBuf::from(value()?),
            "--spans" => o.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = workloads::NAMES.iter().map(|w| w.to_string()).collect();
    }
    Ok(o)
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "compare" => compare::main(rest),
        "run" | "trace" | "bench" | "measure" => {
            parse_options(rest).and_then(|o| match command.as_str() {
                "run" => run(&o, false),
                "trace" => run(&o, true),
                "bench" => bench(&o),
                _ => measure(&o),
            })
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

// ---- the child: one workload in this process -------------------------------

fn measure(o: &Options) -> Result<bool, String> {
    let [workload] = o.workloads.as_slice() else {
        return Err("measure takes exactly one --workload".to_owned());
    };
    let trace = o.trace.unwrap_or(false);
    let base = lemra_netflow::LemraConfig::from_env().map_err(|e| e.to_string())?;
    lemra_netflow::LemraConfig {
        threads: if workloads::serial(workload) {
            Some(1)
        } else {
            base.threads
        },
        ..base
    }
    .install();
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds(),
        trace,
        quick: o.quick,
        golden: o.golden.clone(),
        spans: o.spans.clone(),
    };
    let mut out = workloads::run(workload, &ctx).expect("workload names are checked");
    if !trace {
        out.metric(
            "fail_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    if let Some(path) = &ctx.spans {
        if let Err(e) = measure::write_spans(path, workload, &out.spans) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }
    let metrics = out.metrics.iter().map(|&(name, value)| {
        let unit = catalog::lookup(name).map_or("", |s| s.unit);
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
        )
    });
    let mut info = vec![(
        "config".to_owned(),
        Json::from(format!("{:?}", lemra_netflow::LemraConfig::get())),
    )];
    info.extend(out.info);
    let result = Json::obj([
        ("workload", Json::from(workload.as_str())),
        ("seed", Json::from(o.seed)),
        ("trace", Json::from(trace)),
        (
            "correct",
            Json::from(out.failures.is_empty() && out.failed == 0),
        ),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        (
            "failures",
            Json::Arr(out.failures.into_iter().map(Json::from).collect()),
        ),
        ("metrics", Json::obj(metrics)),
        ("info", Json::Obj(info)),
    ]);
    println!("{result}");
    Ok(true)
}

/// Runs one workload in a child process with a clean `LEMRA_*`
/// environment and returns its result object.
fn spawn(o: &Options, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the ledger binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["measure", "--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--golden")
        .arg(&o.golden)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(path)) = (trace, &o.spans) {
        cmd.arg("--spans").arg(path);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LEMRA_") {
            cmd.env_remove(key);
        }
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{workload}: starting the child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: child printed no result"))?;
    Json::parse(line).map_err(|e| format!("{workload}: child result: {e}"))
}

// ---- bench: the one-line form `BENCHMARK.json` runs ------------------------

fn bench(o: &Options) -> Result<bool, String> {
    let ([workload], Some(trace), Some(_)) = (o.workloads.as_slice(), o.trace, o.seconds) else {
        return Err(
            "bench takes --workload W --seed S --seconds N --trace 0|1, one workload".to_owned(),
        );
    };
    let result = spawn(o, workload, trace)?;
    let specs = if trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let got = result.get("metrics").cloned().unwrap_or(Json::Null);
    let mut metrics = Vec::new();
    for spec in specs {
        let value = got
            .get(spec.name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{workload}: no finite value for {}", spec.name))?;
        metrics.push((
            spec.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(spec.unit))]),
        ));
    }
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    for failure in result.get("failures").map(Json::as_arr).unwrap_or_default() {
        eprintln!("ledger: {workload}: {}", failure.as_str().unwrap_or("?"));
    }
    let field = |key: &str| result.get(key).cloned().unwrap_or(Json::Null);
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    Ok(correct)
}

// ---- run and trace: every workload, printed and filed -----------------------

fn run(o: &Options, trace: bool) -> Result<bool, String> {
    let spans = trace.then(|| {
        o.spans
            .clone()
            .unwrap_or_else(|| PathBuf::from("trace.jsonl"))
    });
    if let Some(path) = &spans {
        std::fs::write(path, "").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let o = &Options {
        spans,
        workloads: o.workloads.clone(),
        out: o.out.clone(),
        golden: o.golden.clone(),
        ..*o
    };
    let provenance = provenance();
    println!("# {provenance}");
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in &o.workloads {
        let result = match spawn(o, workload, trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ledger: {e}");
                all_correct = false;
                continue;
            }
        };
        for (name, m) in result.get("metrics").map(Json::as_obj).unwrap_or_default() {
            let value = m.get("value").cloned().unwrap_or(Json::Null);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{workload} {name} {value} {unit}");
        }
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        println!(
            "{workload} correct {correct} attempted={} failed={}",
            result.get("attempted").cloned().unwrap_or(Json::Null),
            result.get("failed").cloned().unwrap_or(Json::Null)
        );
        for failure in result.get("failures").map(Json::as_arr).unwrap_or_default() {
            eprintln!("ledger: {workload}: {}", failure.as_str().unwrap_or("?"));
        }
        all_correct &= correct;
        results.push(result);
    }
    if let Some(path) = &o.out {
        let file = Json::obj([
            ("provenance", provenance),
            ("mode", Json::from(if trace { "trace" } else { "run" })),
            ("seed", Json::from(o.seed)),
            ("seconds", Json::Num(o.seconds())),
            ("workloads", Json::Arr(results)),
        ]);
        std::fs::write(path, format!("{file}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

/// Stdout of a command, trimmed; `None` if it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// Where and on what the numbers were taken: commit and dirty flag of the
/// tree the ledger belongs to, core count, CPU model and compiler.
fn provenance() -> Json {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git = |args: &[&str]| {
        let mut full = vec!["-C", root];
        full.extend_from_slice(args);
        command_output("git", &full)
    };
    // Only this tree's own repository counts, not one that encloses it.
    let own_repo = git(&["rev-parse", "--show-toplevel"])
        .is_some_and(|top| std::fs::canonicalize(top).ok() == std::fs::canonicalize(root).ok());
    let (commit, dirty) = if own_repo {
        (
            git(&["rev-parse", "HEAD"]).map_or(Json::Null, Json::from),
            git(&["status", "--porcelain"]).map_or(Json::Null, |s| Json::from(!s.is_empty())),
        )
    } else {
        (Json::Null, Json::Null)
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        });
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Json::obj([
        ("commit", commit),
        ("dirty", dirty),
        ("nproc", Json::from(nproc as u64)),
        ("cpu", cpu.map_or(Json::Null, Json::from)),
        (
            "rustc",
            command_output("rustc", &["-V"]).map_or(Json::Null, Json::from),
        ),
    ])
}
