//! `ledger compare PARENT.json... -- CHANGE.json...`: the paired-run rule
//! for a change against its parent.
//!
//! The i-th parent file pairs with the i-th change file; run them
//! alternately (parent, change, change, parent, …) on one machine with the
//! same seeds and window. For each (workload, metric) the verdict is:
//!
//! - `improved`: at least 10 pairs, the change wins at least nine in ten of
//!   them (ties count for neither side), and the medians differ in its
//!   favour by more than the parent's interquartile range;
//! - `regressed`: the change's median is worse than the parent's by more
//!   than the metric's bound — the `BENCHMARK.json` bound, zero for exact
//!   metrics (energies, failure ratios, rate steps, counts), and the
//!   parent's own interquartile range for metrics the benchmark gives no
//!   bound;
//! - `unresolved`: the parent's own spread is wider than the bound, so
//!   neither verdict can be told from noise, unless every change run reads
//!   better (or worse) than every parent run;
//! - `unchanged`: otherwise.

use crate::catalog::{lookup, Better};
use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

type Series = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str, into: &mut Series) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let runs = file
        .get("workloads")
        .ok_or_else(|| format!("{path}: not a ledger results file"))?;
    for run in runs.as_arr() {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (metric, m) in run.get("metrics").map(Json::as_obj).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                into.entry((workload.to_owned(), metric.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(())
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(file
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// The verdict for one (workload, metric); `bound` is a share of the
/// parent's median, `None` for metrics the benchmark gives no bound.
pub fn verdict(
    better: Better,
    exact: bool,
    bound: Option<f64>,
    parent: &[f64],
    change: &[f64],
) -> &'static str {
    // Positive `gain` is a move in the better direction.
    let sign = if better == Better::Lower { -1.0 } else { 1.0 };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| (*c - *p) * sign > 0.0)
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let iqr = q3 - q1;
    let gain = (cm - pm) * sign;
    if pairs >= 10 && wins * 10 >= 9 * pairs && gain > iqr {
        return "improved";
    }
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    let limit = if exact {
        0.0
    } else {
        bound.map_or(iqr, |b| b * scale)
    };
    let worst = |xs: &[f64]| xs.iter().map(|x| x * sign).fold(f64::INFINITY, f64::min);
    let best = |xs: &[f64]| {
        xs.iter()
            .map(|x| x * sign)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let separated_worse = best(change) < worst(parent);
    let separated_better = worst(change) > best(parent);
    let noisy = !exact && iqr > limit;
    if -gain > limit {
        if noisy && !separated_worse {
            "unresolved"
        } else {
            "regressed"
        }
    } else if noisy && !separated_better {
        "unresolved"
    } else {
        "unchanged"
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_owned();
    let mut parent_files = Vec::new();
    let mut change_files = Vec::new();
    let mut after_split = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--" => after_split = true,
            "--benchmark" => {
                benchmark = it.next().cloned().ok_or("--benchmark needs a value")?;
            }
            file if after_split => change_files.push(file.to_owned()),
            file => parent_files.push(file.to_owned()),
        }
    }
    if parent_files.is_empty() || change_files.is_empty() {
        return Err("compare needs PARENT.json... -- CHANGE.json...".to_owned());
    }
    let bounds = bounds(&benchmark)?;
    let (mut parent, mut change) = (Series::new(), Series::new());
    for f in &parent_files {
        load(f, &mut parent)?;
    }
    for f in &change_files {
        load(f, &mut change)?;
    }
    if parent_files.len() < 10 || change_files.len() < 10 {
        eprintln!(
            "ledger: {} parent and {} change runs; a gain needs at least 10 pairs",
            parent_files.len(),
            change_files.len()
        );
    }
    println!("# workload metric verdict parent_median [q1 q3] change_median [q1 q3] wins/pairs");
    for (key, p) in &parent {
        let Some(c) = change.get(key) else { continue };
        let (workload, metric) = key;
        let spec = lookup(metric);
        let better = spec.map_or(Better::Lower, |s| s.better);
        let exact = spec.is_some_and(|s| s.exact);
        let v = verdict(better, exact, bounds.get(metric).copied(), p, c);
        let sign = if better == Better::Lower { -1.0 } else { 1.0 };
        let wins = p
            .iter()
            .zip(c)
            .filter(|(a, b)| (*b - *a) * sign > 0.0)
            .count();
        let (pq1, pq3) = quartiles(p);
        let (cq1, cq3) = quartiles(c);
        println!(
            "{workload} {metric} {v} {} [{pq1} {pq3}] {} [{cq1} {cq3}] {wins}/{}",
            median(p),
            median(c),
            p.len().min(c.len())
        );
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 3)).collect()
    }

    #[test]
    fn clear_gain_is_improved_and_noise_is_not() {
        let parent = runs(100.0, 1.0);
        assert_eq!(
            verdict(Better::Lower, false, Some(0.1), &parent, &runs(80.0, 1.0)),
            "improved"
        );
        assert_eq!(
            verdict(Better::Lower, false, Some(0.1), &parent, &runs(100.5, 1.0)),
            "unchanged"
        );
        assert_eq!(
            verdict(Better::Lower, false, Some(0.1), &parent, &runs(130.0, 1.0)),
            "regressed"
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = runs(100.0, 30.0);
        let change = runs(101.0, 30.0);
        assert_eq!(
            verdict(Better::Lower, false, Some(0.1), &parent, &change),
            "unresolved"
        );
    }

    #[test]
    fn exact_metrics_regress_on_any_worsening() {
        let parent = vec![5.0; 10];
        let change = vec![5.0001; 10];
        assert_eq!(
            verdict(Better::Lower, true, Some(0.2), &parent, &change),
            "regressed"
        );
        assert_eq!(
            verdict(Better::Lower, true, Some(0.2), &parent, &parent),
            "unchanged"
        );
    }
}
