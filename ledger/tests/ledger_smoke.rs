//! Smoke pass over the ledger binary: a quick run of every workload emits
//! every `BENCHMARK.json` metric with its unit, the traced run emits every
//! layer metric, and a corrupted golden file fails the run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const LEDGER: &str = env!("CARGO_BIN_EXE_ledger");
const WORKLOADS: [&str; 5] = [
    "paper_suite",
    "block_512",
    "program_4k",
    "program_trace",
    "server_mix",
];

fn ledger(args: &[&str]) -> Output {
    Command::new(LEDGER)
        .args(args)
        .output()
        .expect("the ledger binary runs")
}

/// The string value of `"key": "…"` on one line of `BENCHMARK.json`, which
/// lists one metric per line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    text[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .filter_map(|l| Some((field(l, "name")?.to_owned(), field(l, "unit")?.to_owned())))
        .collect()
}

/// Every `workload metric value unit` line must be present, well named and
/// finite for each BENCHMARK.json metric of `section`.
fn assert_emits_every_metric(stdout: &str, section: &str) {
    let metrics = benchmark_metrics(section);
    assert!(!metrics.is_empty(), "{section} lists metrics");
    for workload in WORKLOADS {
        for (name, unit) in &metrics {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name `{name}`"
            );
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("{workload} {name} ")))
                .unwrap_or_else(|| panic!("{workload} emits {name}:\n{stdout}"));
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 4, "{line}");
            let value: f64 = fields[2]
                .parse()
                .unwrap_or_else(|_| panic!("numeric value: {line}"));
            assert!(value.is_finite(), "{line}");
            assert_eq!(fields[3], unit, "{line}");
        }
        assert!(
            stdout.contains(&format!("{workload} correct true")),
            "{workload} passes its oracles:\n{stdout}"
        );
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn quick_run_of_every_workload_emits_every_end_to_end_metric() {
    let t0 = Instant::now();
    let out = ledger(&["run", "--quick"]);
    let took = t0.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(30), "quick run took {took:?}");
    assert_emits_every_metric(&stdout, "end_to_end");
}

#[test]
fn quick_trace_of_every_workload_emits_every_layer_metric() {
    let spans = scratch("trace").join("trace.jsonl");
    let out = ledger(&[
        "trace",
        "--quick",
        "--spans",
        spans.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_emits_every_metric(&stdout, "per_layer");
    let written = std::fs::read_to_string(&spans).expect("spans written");
    for workload in WORKLOADS {
        assert!(
            written.contains(&format!("\"workload\": \"{workload}\"")),
            "{workload} spans"
        );
    }
}

#[test]
fn corrupted_golden_file_fails_the_run() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let corrupt = scratch("corrupt-golden");
    for entry in std::fs::read_dir(&golden).expect("golden directory") {
        let path = entry.expect("golden entry").path();
        std::fs::copy(&path, corrupt.join(path.file_name().expect("file name")))
            .expect("copy golden file");
    }
    let repro = corrupt.join("repro.json");
    let text = std::fs::read_to_string(&repro).expect("golden repro output");
    let digit = text.find(|c: char| c.is_ascii_digit()).expect("a digit");
    let flipped = if &text[digit..=digit] == "9" {
        "8"
    } else {
        "9"
    };
    std::fs::write(
        &repro,
        format!("{}{flipped}{}", &text[..digit], &text[digit + 1..]),
    )
    .expect("write corrupted copy");

    let out = ledger(&[
        "run",
        "--quick",
        "--workload",
        "paper_suite",
        "--golden",
        corrupt.to_str().expect("utf-8 path"),
    ]);
    assert!(!out.status.success(), "a corrupted golden file must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("golden"), "{stderr}");
}
