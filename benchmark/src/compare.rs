//! `compare A.json B.json`: did B get worse than A, metric by metric?
//!
//! Both files are what `run --out` appends: an array of run records.  One
//! row is printed per (workload, end-to-end metric) with each side's median,
//! the relative change, the bound `BENCHMARK.json` fixes for the metric and
//! a verdict:
//!
//! * `unresolved` — a side's own spread (interquartile distance as a share
//!   of its median) exceeds the bound, so a difference of that size cannot
//!   be told from noise;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `ok` — otherwise.
//!
//! A side's spread is taken across its runs when it holds at least four of
//! the workload, otherwise across the windows inside its runs.

use crate::json::Json;
use crate::stats::{median, relative_spread};

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The parts of the manifest the benchmark's own tools read.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
}

impl Manifest {
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("manifest has no `{key}` list"))
        };
        let text_of = |entry: &Json, key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("manifest entry lacks `{key}`"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    higher_is_better: text_of(m, "better")? == "higher",
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("end-to-end metric lacks `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Manifest {
            workloads,
            end_to_end,
        })
    }
}

/// One side's evidence for one (workload, metric).
#[derive(Debug, Clone, Default)]
struct Side {
    per_run: Vec<f64>,
    per_window: Vec<f64>,
}

impl Side {
    fn collect(runs: &[Json], workload: &str, metric: &str) -> Side {
        let mut side = Side::default();
        for run in runs {
            let untraced = run.get("trace").and_then(Json::as_f64) == Some(0.0);
            if !untraced || run.get("workload").and_then(Json::as_str) != Some(workload) {
                continue;
            }
            let value = run
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            if let Some(value) = value {
                side.per_run.push(value);
            }
            if let Some(windows) = run
                .get("windows")
                .and_then(|w| w.get(metric))
                .and_then(Json::as_array)
            {
                side.per_window
                    .extend(windows.iter().filter_map(Json::as_f64));
            }
        }
        side
    }

    fn spread(&self) -> Option<f64> {
        if self.per_run.len() >= 4 {
            relative_spread(&self.per_run)
        } else {
            relative_spread(&self.per_window)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `change` is `(b − a) / a`.
pub fn verdict(change: f64, higher_is_better: bool, spread: Option<f64>, bound: f64) -> Verdict {
    let worse_by = if higher_is_better { -change } else { change };
    match spread {
        Some(spread) if spread > bound => Verdict::Unresolved,
        None => Verdict::Unresolved,
        _ if worse_by > bound => Verdict::Worse,
        _ => Verdict::Ok,
    }
}

/// Prints the comparison table; `Ok(true)` if no row is `worse`.
pub fn compare(manifest: &Manifest, a: &Json, b: &Json) -> Result<bool, String> {
    let runs = |doc: &'_ Json| -> Result<Vec<Json>, String> {
        doc.as_array()
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "a result file is an array of run records".to_owned())
    };
    let (a, b) = (runs(a)?, runs(b)?);
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "A spread", "B spread"
    );
    let mut none_worse = true;
    let mut rows = 0;
    for workload in &manifest.workloads {
        for metric in &manifest.end_to_end {
            let side_a = Side::collect(&a, workload, &metric.name);
            let side_b = Side::collect(&b, workload, &metric.name);
            if side_a.per_run.is_empty() || side_b.per_run.is_empty() {
                continue;
            }
            rows += 1;
            let (median_a, median_b) = (median(&side_a.per_run), median(&side_b.per_run));
            let change = (median_b - median_a) / median_a;
            let spread = match (side_a.spread(), side_b.spread()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                _ => None,
            };
            let verdict = verdict(change, metric.higher_is_better, spread, metric.bound);
            none_worse &= verdict != Verdict::Worse;
            let percent =
                |x: Option<f64>| x.map_or("n/a".to_owned(), |x| format!("{:.1}%", x * 100.0));
            println!(
                "{:<16} {:<22} {:>14.3} {:>14.3} {:>8.1}% {:>6.0}% {:>8} {:>8}  {}",
                workload,
                metric.name,
                median_a,
                median_b,
                change * 100.0,
                metric.bound * 100.0,
                percent(side_a.spread()),
                percent(side_b.spread()),
                verdict.label(),
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) with untraced runs".to_owned());
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: +12 % against a 10 % bound is worse, +8 % is ok.
        assert_eq!(verdict(0.12, false, Some(0.02), 0.10), Verdict::Worse);
        assert_eq!(verdict(0.08, false, Some(0.02), 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.30, false, Some(0.02), 0.10), Verdict::Ok);
        // Higher is better: the sign flips.
        assert_eq!(verdict(-0.12, true, Some(0.02), 0.10), Verdict::Worse);
        assert_eq!(verdict(0.12, true, Some(0.02), 0.10), Verdict::Ok);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(verdict(0.50, false, Some(0.11), 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.00, true, None, 0.10), Verdict::Unresolved);
    }

    fn run(workload: &str, value: f64, windows: &[f64]) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([(
                    "mw.commit_p50_us",
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str("us"))]),
                )]),
            ),
            (
                "windows",
                Json::obj([("mw.commit_p50_us", Json::nums(windows.iter().copied()))]),
            ),
        ])
    }

    #[test]
    fn sides_use_run_spread_with_four_runs_and_window_spread_below() {
        let few = [run("tpcb_disk", 100.0, &[99.0, 100.0, 101.0, 100.0, 100.5])];
        let side = Side::collect(&few, "tpcb_disk", "mw.commit_p50_us");
        assert_eq!(side.per_run, vec![100.0]);
        assert!(side.spread().unwrap() < 0.02);

        let many: Vec<Json> = [90.0, 100.0, 110.0, 120.0]
            .iter()
            .map(|v| run("tpcb_disk", *v, &[*v; 5]))
            .collect();
        let side = Side::collect(&many, "tpcb_disk", "mw.commit_p50_us");
        assert!(side.spread().unwrap() > 0.2, "across runs, not windows");
        assert!(Side::collect(&many, "tpcb_tcp", "mw.commit_p50_us")
            .per_run
            .is_empty());
    }

    #[test]
    fn the_manifest_reader_takes_names_bounds_and_directions() {
        let manifest = Manifest::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "m", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(manifest.workloads, ["w"]);
        assert_eq!(manifest.end_to_end[0].bound, 0.1);
        assert!(!manifest.end_to_end[0].higher_is_better);
        assert!(Manifest::parse("{}").is_err());
    }
}
