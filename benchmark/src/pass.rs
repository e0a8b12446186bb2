//! One system's pass over a workload, in a process of its own.
//!
//! A run measures Base, Tashkent-MW and Tashkent-API back to back.  Done in
//! one process, the second and third system inherit the first one's heap: a
//! CPU-bound pass leaves tens of millions of small allocations behind, and
//! whether the next system allocates from freed chunks or from fresh pages
//! moved its throughput by tens of percent (and freeing them cost ≈3 s per
//! system).  So the parent spawns this binary once per system (`pass …`),
//! the child builds the cluster, runs, checks, prints one JSON line and
//! exits without tearing anything down, and every system is measured from
//! the same clean state.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::assemble::{Assembly, Profile};
use crate::driver::{check, load, run_system, Plan, Totals};
use crate::json::Json;
use crate::report::{accounted_share, end_to_end, layer_values, EndToEnd};
use crate::trace::{build_spans, spans_json, CertifyLog, CertifySpan, Clock};
use crate::workload::{self, System, WorkloadSpec, CERTIFIER_NODES, REPLICAS};

/// Committed update transactions a system must contribute before its p95
/// is reported: ten samples beyond the percentile.
pub const SAMPLE_FLOOR: usize = 200;

/// Transactions whose spans a traced pass hands back for the trace file
/// (the statistics use every span; the file is a readable excerpt).
const EXCERPT_TXS: usize = 1000;

/// What one pass is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    pub workload: &'static WorkloadSpec,
    pub system: System,
    pub seed: u64,
    pub warmup_s: f64,
    pub windows: usize,
    pub window_s: f64,
    /// Registry on, timing wrappers interposed, spans recorded.
    pub traced: bool,
    /// How many times the cluster is built and loaded (set-up time samples).
    pub setup_repeats: usize,
    /// Enforce [`SAMPLE_FLOOR`].
    pub sample_floor: bool,
}

/// What one pass reports back.
#[derive(Debug, Clone)]
pub struct PassReport {
    pub totals: Totals,
    pub violations: Vec<String>,
    /// Seconds per build: cluster/socket start + table creation + bulk load.
    pub setup_times: Vec<f64>,
    pub drain_ms: f64,
    pub run: EndToEnd,
    pub windows: Vec<EndToEnd>,
    /// The traced stems in `report::LAYER_STEMS` order (traced passes).
    pub layer_values: Vec<f64>,
    /// Σ part medians / median tx span over committed updates (traced).
    pub accounted_share: f64,
    pub span_count: usize,
    /// Span objects of the first [`EXCERPT_TXS`] transactions (traced).
    pub excerpt: Vec<Json>,
}

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.0))
}

/// Runs the pass in this process.
pub fn measure(spec: &PassSpec) -> Result<PassReport, String> {
    let clock = Clock::start();
    let profile = Profile {
        system: spec.system,
        replicas: REPLICAS,
        certifier_nodes: CERTIFIER_NODES,
        slept_disk: spec.workload.slept_disk,
        tcp: spec.workload.tcp,
    };
    // Build and load the cluster `setup_repeats` times, keeping the last;
    // the previous build is torn down outside the timed region.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for _ in 0..spec.setup_repeats.max(1) {
        drop(kept.take());
        let started = Instant::now();
        let assembly = Assembly::start(&profile, spec.traced.then_some(clock))?;
        let tables = load(&assembly, spec.workload.schema);
        setup_times.push(started.elapsed().as_secs_f64());
        kept = Some((assembly, tables));
    }
    let (assembly, tables) = kept.expect("at least one build");

    let plan = Plan {
        warmup: secs(spec.warmup_s),
        windows: spec.windows,
        window: secs(spec.window_s),
    };
    let run = run_system(&assembly, tables, spec.workload, spec.seed, &plan, clock);
    // Read the registry before the correctness gate's refreshes add
    // installs that no client transaction caused.
    let counters = assembly.layer_counters();
    let stages = assembly.registry_stages();
    let mut violations = check(&assembly, spec.workload.schema, &run);
    let (pooled, windows) = end_to_end(&run);
    if spec.sample_floor && pooled.samples < SAMPLE_FLOOR {
        violations.push(format!(
            "{} committed update samples, below the floor of {SAMPLE_FLOOR}",
            pooled.samples
        ));
    }

    let mut report = PassReport {
        totals: run.totals(),
        violations,
        setup_times,
        drain_ms: run.drain_ms,
        run: pooled,
        windows,
        layer_values: Vec::new(),
        accounted_share: f64::NAN,
        span_count: 0,
        excerpt: Vec::new(),
    };
    if spec.traced {
        let (from, to) = (
            run.boundaries[0],
            *run.boundaries.last().expect("boundaries"),
        );
        let mut spans = Vec::new();
        let mut calls: Vec<CertifySpan> = Vec::new();
        let mut first_id = 0;
        for (replica, client) in run.clients.iter().enumerate() {
            let take = |log: Option<&std::sync::Arc<CertifyLog>>| {
                log.map(|log| log.take(replica)).unwrap_or_default()
            };
            let client_log = take(assembly.client_certify_log());
            let server_log = take(assembly.server_certify_log());
            match build_spans(
                first_id,
                &client.records,
                &client_log,
                &server_log,
                from,
                to,
            ) {
                Ok(built) => spans.extend(built),
                Err(error) => report
                    .violations
                    .push(format!("replica {replica} trace: {error}")),
            }
            first_id += client.records.len() as u64;
            calls.extend(
                client_log
                    .into_iter()
                    .filter(|call| call.end_ns >= from && call.end_ns < to),
            );
        }
        report.layer_values = layer_values(&spans, &calls, &counters, &stages, run.drain_ms);
        report.accounted_share = accounted_share(&spans);
        report.span_count = spans.len();
        report.excerpt = spans
            .iter()
            .take(EXCERPT_TXS)
            .flat_map(|tx| spans_json(spec.system.prefix(), tx))
            .collect();
    }
    // The measured cluster is not torn down.  After a CPU-bound pass it
    // holds tens of millions of small allocations whose release takes
    // seconds that no metric needs, and this process ends as soon as the
    // report is printed.
    std::mem::forget(assembly);
    Ok(report)
}

fn end_to_end_json(figures: &EndToEnd) -> Json {
    Json::obj([
        ("committed_per_s", Json::Num(figures.committed_per_s)),
        ("commit_p50_us", Json::Num(figures.commit_p50_us)),
        ("commit_p95_us", Json::Num(figures.commit_p95_us)),
        ("samples", Json::Num(figures.samples as f64)),
    ])
}

/// A number that may be NaN (an empty sample set) travels as `null`.
fn number(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(Json::Null) => Ok(f64::NAN),
        _ => Err(format!("pass report lacks `{key}`")),
    }
}

fn numbers(doc: &Json, key: &str) -> Result<Vec<f64>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("pass report lacks `{key}`"))?
        .iter()
        .map(|v| match v {
            Json::Num(n) => Ok(*n),
            Json::Null => Ok(f64::NAN),
            _ => Err(format!("`{key}` holds a non-number")),
        })
        .collect()
}

fn end_to_end_from(doc: &Json) -> Result<EndToEnd, String> {
    Ok(EndToEnd {
        committed_per_s: number(doc, "committed_per_s")?,
        commit_p50_us: number(doc, "commit_p50_us")?,
        commit_p95_us: number(doc, "commit_p95_us")?,
        samples: number(doc, "samples")? as usize,
    })
}

impl PassReport {
    pub fn to_json(&self) -> Json {
        let t = &self.totals;
        Json::obj([
            (
                "totals",
                Json::nums(
                    [
                        t.attempted,
                        t.committed_updates,
                        t.committed_reads,
                        t.aborted,
                        t.failed,
                    ]
                    .map(|n| n as f64),
                ),
            ),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            ("setup_times", Json::nums(self.setup_times.iter().copied())),
            ("drain_ms", Json::Num(self.drain_ms)),
            ("run", end_to_end_json(&self.run)),
            (
                "windows",
                Json::Arr(self.windows.iter().map(end_to_end_json).collect()),
            ),
            (
                "layer_values",
                Json::nums(self.layer_values.iter().copied()),
            ),
            ("accounted_share", Json::Num(self.accounted_share)),
            ("span_count", Json::Num(self.span_count as f64)),
            ("excerpt", Json::Arr(self.excerpt.clone())),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<PassReport, String> {
        let totals = numbers(doc, "totals")?;
        let [attempted, committed_updates, committed_reads, aborted, failed] =
            <[f64; 5]>::try_from(totals).map_err(|_| "`totals` has five entries".to_owned())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("pass report lacks `{key}`"))
        };
        Ok(PassReport {
            totals: Totals {
                attempted: attempted as u64,
                committed_updates: committed_updates as u64,
                committed_reads: committed_reads as u64,
                aborted: aborted as u64,
                failed: failed as u64,
            },
            violations: list("violations")?
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect(),
            setup_times: numbers(doc, "setup_times")?,
            drain_ms: number(doc, "drain_ms")?,
            run: end_to_end_from(doc.get("run").ok_or("pass report lacks `run`")?)?,
            windows: list("windows")?
                .iter()
                .map(end_to_end_from)
                .collect::<Result<_, _>>()?,
            layer_values: numbers(doc, "layer_values")?,
            accounted_share: number(doc, "accounted_share")?,
            span_count: number(doc, "span_count")? as usize,
            excerpt: list("excerpt")?.to_vec(),
        })
    }
}

impl PassSpec {
    /// The child's command line.
    fn to_args(self) -> Vec<String> {
        let flag = |b: bool| u8::from(b).to_string();
        vec![
            "pass".to_owned(),
            "--workload".to_owned(),
            self.workload.name.to_owned(),
            "--system".to_owned(),
            self.system.prefix().to_owned(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--warmup".to_owned(),
            self.warmup_s.to_string(),
            "--windows".to_owned(),
            self.windows.to_string(),
            "--window".to_owned(),
            self.window_s.to_string(),
            "--traced".to_owned(),
            flag(self.traced),
            "--setup-repeats".to_owned(),
            self.setup_repeats.to_string(),
            "--sample-floor".to_owned(),
            flag(self.sample_floor),
        ]
    }

    /// Reads back what [`PassSpec::to_args`] wrote; `value` looks a flag up.
    pub fn from_flags(value: &dyn Fn(&str) -> Result<String, String>) -> Result<PassSpec, String> {
        fn parsed<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}"))
        }
        let workload_name = value("workload")?;
        let system_name = value("system")?;
        Ok(PassSpec {
            workload: workload::find(&workload_name)
                .ok_or_else(|| format!("unknown workload {workload_name:?}"))?,
            system: System::ALL
                .into_iter()
                .find(|s| s.prefix() == system_name)
                .ok_or_else(|| format!("unknown system {system_name:?}"))?,
            seed: parsed("seed", value("seed")?)?,
            warmup_s: parsed("warmup", value("warmup")?)?,
            windows: parsed("windows", value("windows")?)?,
            window_s: parsed("window", value("window")?)?,
            traced: parsed::<u8>("traced", value("traced")?)? != 0,
            setup_repeats: parsed("setup-repeats", value("setup-repeats")?)?,
            sample_floor: parsed::<u8>("sample-floor", value("sample-floor")?)? != 0,
        })
    }

    /// Runs the pass in a child process and waits for it to end.
    pub fn spawn(self) -> Result<PassReport, String> {
        let program = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let output = Command::new(program)
            .args(self.to_args())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the pass: {e}"))?;
        if !output.status.success() {
            return Err(format!("the pass ended with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().ok_or("the pass printed nothing")?;
        PassReport::from_json(&Json::parse(line)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_spec_survives_its_command_line() {
        let spec = PassSpec {
            workload: workload::find("tpcb_tcp").unwrap(),
            system: System::Api,
            seed: 18_446_744_073_709_551_557,
            warmup_s: 0.5,
            windows: 5,
            window_s: 1.8,
            traced: true,
            setup_repeats: 11,
            sample_floor: true,
        };
        let args = spec.to_args();
        assert_eq!(args[0], "pass");
        let lookup = |name: &str| -> Result<String, String> {
            let at = args
                .iter()
                .position(|a| a == &format!("--{name}"))
                .ok_or("missing")?;
            Ok(args[at + 1].clone())
        };
        let back = PassSpec::from_flags(&lookup).unwrap();
        assert_eq!(back.workload.name, "tpcb_tcp");
        assert_eq!(back.system, System::Api);
        assert_eq!(back.seed, spec.seed);
        assert_eq!(back.window_s, 1.8);
        assert_eq!((back.windows, back.setup_repeats), (5, 11));
        assert!(back.traced && back.sample_floor);
    }

    #[test]
    fn a_pass_report_survives_json_with_its_gaps() {
        let figures = EndToEnd {
            committed_per_s: 36.25,
            commit_p50_us: 55_039.29,
            commit_p95_us: f64::NAN,
            samples: 291,
        };
        let report = PassReport {
            totals: Totals {
                attempted: 326,
                committed_updates: 311,
                committed_reads: 0,
                aborted: 15,
                failed: 0,
            },
            violations: vec!["replica 1 differs".to_owned()],
            setup_times: vec![0.0101, 0.0097],
            drain_ms: 7.5,
            run: figures,
            windows: vec![figures, figures],
            layer_values: vec![1.0, 2.5],
            accounted_share: f64::NAN,
            span_count: 2,
            excerpt: vec![Json::obj([("name", Json::str("tx"))])],
        };
        let line = report.to_json().to_line();
        let back = PassReport::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.totals, report.totals);
        assert_eq!(back.violations, report.violations);
        assert_eq!(back.setup_times, report.setup_times);
        assert_eq!(back.run.samples, 291);
        assert_eq!(back.run.commit_p50_us, 55_039.29);
        assert!(back.run.commit_p95_us.is_nan(), "a gap stays a gap");
        assert_eq!(back.windows.len(), 2);
        assert_eq!(back.layer_values, vec![1.0, 2.5]);
        assert!(back.accounted_share.is_nan());
        assert_eq!(back.excerpt, report.excerpt);
    }
}
