//! One benchmark run: a workload, a seed, a length, traced or not.
//!
//! * **Untraced** (`--trace 0`): Base, Tashkent-MW and Tashkent-API back to
//!   back on identical inputs, metrics registry and wrappers off; yields the
//!   end-to-end metrics.
//! * **Traced** (`--trace 1`): the layer drills, an untraced Tashkent-MW
//!   pass (the overhead baseline), then the three systems with the registry
//!   on and the timing wrappers interposed; yields the per-layer metrics and
//!   `trace-<workload>.json`.

use std::path::Path;
use std::time::Instant;

use crate::drills;
use crate::driver::Totals;
use crate::json::Json;
use crate::pass::{PassReport, PassSpec};
use crate::report::{
    end_to_end_names, per_layer_names, Metric, END_TO_END_STEMS, LAYER_STEMS, SETUP, TRACE_OVERHEAD,
};
use crate::stats::median;
use crate::workload::{System, WorkloadSpec};

/// Seconds of a traced run set aside for the layer drills.
const DRILL_BUDGET_S: f64 = 5.5;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Measured seconds of the whole run (all systems together).
    pub seconds: f64,
    /// A quick compile-and-wire check: 0.3 s windows, one window, no
    /// sample-count floor, shrunk drills.
    pub smoke: bool,
    /// Where `trace-<workload>.json` goes.
    pub trace_dir: String,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Per-window (or per-repeat, for set-up) values behind each end-to-end
    /// metric: the run's own spread.
    pub windows: Vec<(String, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The four keys the benchmark contract asks for.
    fn contract_fields(&self) -> Vec<(String, Json)> {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            (
                "attempted".to_owned(),
                Json::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::obj(metrics)),
        ]
    }

    /// The richer record `run --out` appends and `compare` reads: what the
    /// run was, the contract's keys, and the per-window values.
    pub fn to_json(&self) -> Json {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut fields = vec![
            ("workload".to_owned(), Json::str(self.workload)),
            ("seed".to_owned(), Json::Num(self.seed as f64)),
            ("seconds".to_owned(), Json::Num(self.seconds)),
            (
                "trace".to_owned(),
                Json::Num(f64::from(u8::from(self.traced))),
            ),
            ("nproc".to_owned(), Json::Num(nproc as f64)),
        ];
        fields.extend(self.contract_fields());
        fields.push((
            "windows".to_owned(),
            Json::obj(
                self.windows
                    .iter()
                    .map(|(name, values)| (name.clone(), Json::nums(values.iter().copied()))),
            ),
        ));
        fields.push((
            "violations".to_owned(),
            Json::Arr(self.violations.iter().map(Json::str).collect()),
        ));
        Json::Obj(fields)
    }

    pub fn print(&self) {
        println!(
            "== {} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced)
        );
        for note in &self.notes {
            println!("   {note}");
        }
        for metric in &self.metrics {
            println!("{:<46} {:>16.4} {}", metric.name, metric.value, metric.unit);
        }
        for violation in &self.violations {
            println!("VIOLATION: {violation}");
        }
        println!("{}", Json::Obj(self.contract_fields()).to_line());
    }
}

fn totals_note(label: &str, report: &PassReport, extra: &str) -> String {
    let totals = report.totals;
    format!(
        "{label:<12} attempted {} committed {} (updates {}, read-only {}) aborted {} failed {}; \
         {} latency samples, drain {:.1} ms{extra}",
        totals.attempted,
        totals.committed_updates + totals.committed_reads,
        totals.committed_updates,
        totals.committed_reads,
        totals.aborted,
        totals.failed,
        report.run.samples,
        report.drain_ms,
    )
}

const WARMUP_S: f64 = 0.5;
const SMOKE_WARMUP_S: f64 = 0.1;
const SMOKE_WINDOW_S: f64 = 0.3;

impl RunResult {
    fn new(spec: &'static WorkloadSpec, options: &Options, traced: bool) -> RunResult {
        RunResult {
            workload: spec.name,
            seed: options.seed,
            seconds: options.seconds,
            traced,
            metrics: Vec::new(),
            windows: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a pass's attempts; any violation fails every operation of it.
    fn book(&mut self, totals: Totals, violated: bool) {
        self.attempted += totals.attempted;
        self.failed += if violated {
            totals.attempted.max(1)
        } else {
            totals.failed
        };
    }

    /// Runs one pass in its own process and books its totals, note and
    /// violations under `label`.
    fn pass(&mut self, label: &str, spec: PassSpec) -> Option<PassReport> {
        match spec.spawn() {
            Ok(report) => {
                self.book(report.totals, !report.violations.is_empty());
                let extra = if spec.traced {
                    format!(
                        "; {} spans, parts/tx {:.4}",
                        report.span_count, report.accounted_share
                    )
                } else {
                    String::new()
                };
                self.notes.push(totals_note(label, &report, &extra));
                self.violations
                    .extend(report.violations.iter().map(|v| format!("{label}: {v}")));
                Some(report)
            }
            Err(error) => {
                self.book(Totals::default(), true);
                self.violations.push(format!("{label}: {error}"));
                None
            }
        }
    }
}

pub fn run_untraced(spec: &'static WorkloadSpec, options: &Options) -> RunResult {
    const WINDOWS: usize = 5;
    const SETUP_REPEATS: usize = 11;
    let pass = |system| {
        let smoke = PassSpec {
            workload: spec,
            system,
            seed: options.seed,
            warmup_s: SMOKE_WARMUP_S,
            windows: 1,
            window_s: SMOKE_WINDOW_S,
            traced: false,
            setup_repeats: 1,
            sample_floor: false,
        };
        if options.smoke {
            smoke
        } else {
            PassSpec {
                warmup_s: WARMUP_S,
                windows: WINDOWS,
                window_s: options.seconds / System::ALL.len() as f64 / WINDOWS as f64,
                setup_repeats: SETUP_REPEATS,
                sample_floor: true,
                ..smoke
            }
        }
    };
    let mut result = RunResult::new(spec, options, false);
    let reports: Vec<Option<PassReport>> = System::ALL
        .into_iter()
        .map(|system| result.pass(system.prefix(), pass(system)))
        .collect();

    for (stem, unit) in END_TO_END_STEMS {
        for (system, report) in System::ALL.iter().zip(&reports) {
            let name = format!("{}.{stem}", system.prefix());
            let (value, windows) = match report {
                Some(report) => (
                    report.run.by_stem(stem),
                    report.windows.iter().map(|w| w.by_stem(stem)).collect(),
                ),
                None => (f64::NAN, Vec::new()),
            };
            result.windows.push((name.clone(), windows));
            result.metrics.push(Metric { name, value, unit });
        }
    }
    // Set-up time: per repeat, the three systems' builds summed; the metric
    // is the median over repeats.
    let repeats = reports
        .iter()
        .map(|r| r.as_ref().map_or(0, |r| r.setup_times.len()))
        .min()
        .unwrap_or(0);
    let per_repeat: Vec<f64> = (0..repeats)
        .map(|i| reports.iter().flatten().map(|r| r.setup_times[i]).sum())
        .collect();
    result.metrics.push(Metric {
        name: SETUP.0.to_owned(),
        value: median(&per_repeat),
        unit: SETUP.1,
    });
    result.windows.push((SETUP.0.to_owned(), per_repeat));

    // The paper's ratios: derived, printed, never gated.
    let throughput = |i: usize| {
        reports[i]
            .as_ref()
            .map_or(f64::NAN, |r| r.run.committed_per_s)
    };
    result.notes.push(format!(
        "mw_over_base.tput {:.3}   api_over_base.tput {:.3}   (derived, ungated)",
        throughput(1) / throughput(0),
        throughput(2) / throughput(0),
    ));
    finish(result, &end_to_end_names())
}

fn write_trace_file(
    dir: &str,
    workload: &str,
    seed: u64,
    passes: &[Option<PassReport>],
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("trace-{workload}.json"));
    let spans: Vec<String> = passes
        .iter()
        .flatten()
        .flat_map(|pass| pass.excerpt.iter().map(Json::to_line))
        .collect();
    let text = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \
         \"clock\": \"ns since the system's pass started\", \"spans\": [\n{}\n]}}\n",
        spans.join(",\n")
    );
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

pub fn run_traced(spec: &'static WorkloadSpec, options: &Options) -> RunResult {
    let (warmup_s, window_s) = if options.smoke {
        (SMOKE_WARMUP_S, SMOKE_WINDOW_S)
    } else {
        // Four passes (untraced MW + three traced systems) share what the
        // drills leave of the run.
        (
            WARMUP_S,
            ((options.seconds - DRILL_BUDGET_S) / 4.0).max(SMOKE_WINDOW_S),
        )
    };
    let pass = |system, traced| PassSpec {
        workload: spec,
        system,
        seed: options.seed,
        warmup_s,
        windows: 1,
        window_s,
        traced,
        setup_repeats: 1,
        sample_floor: false,
    };
    let mut result = RunResult::new(spec, options, true);

    let drill_started = Instant::now();
    let drills = drills::run_all(options.seed, if options.smoke { 10 } else { 1 });
    result.notes.push(format!(
        "drills took {:.2} s",
        drill_started.elapsed().as_secs_f64()
    ));

    // The overhead baseline: Tashkent-MW with registry and wrappers off.
    let throughput =
        |report: &Option<PassReport>| report.as_ref().map_or(f64::NAN, |r| r.run.committed_per_s);
    let untraced_mw = throughput(&result.pass("mw untraced", pass(System::Mw, false)));
    let reports: Vec<Option<PassReport>> = System::ALL
        .into_iter()
        .map(|system| result.pass(system.prefix(), pass(system, true)))
        .collect();

    for (index, (stem, unit)) in LAYER_STEMS.iter().enumerate() {
        for (system, report) in System::ALL.iter().zip(&reports) {
            let value = report
                .as_ref()
                .and_then(|r| r.layer_values.get(index).copied())
                .unwrap_or(f64::NAN);
            result.metrics.push(Metric {
                name: format!("{}.{stem}", system.prefix()),
                value,
                unit,
            });
        }
    }
    let traced_mw = throughput(&reports[1]);
    result.metrics.push(Metric {
        name: TRACE_OVERHEAD.0.to_owned(),
        value: (untraced_mw - traced_mw) / untraced_mw * 100.0,
        unit: TRACE_OVERHEAD.1,
    });
    result
        .metrics
        .extend(drills.into_iter().map(|(name, value, unit)| Metric {
            name: name.to_owned(),
            value,
            unit,
        }));

    match write_trace_file(&options.trace_dir, spec.name, options.seed, &reports) {
        Ok(path) => result.notes.push(format!("spans written to {path}")),
        Err(error) => result.violations.push(format!("trace file: {error}")),
    }
    finish(result, &per_layer_names())
}

/// Final consistency: the metrics reported are exactly the declared set,
/// and every one is a finite number.
fn finish(mut result: RunResult, declared: &[(String, &'static str)]) -> RunResult {
    let reported: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = declared.iter().map(|(name, _)| name.as_str()).collect();
    if reported != expected {
        result
            .violations
            .push("reported metric names differ from the declared set".to_owned());
    }
    for metric in &mut result.metrics {
        if !metric.value.is_finite() {
            result
                .violations
                .push(format!("{} has no value", metric.name));
            metric.value = 0.0;
        }
    }
    if !result.violations.is_empty() && result.failed == 0 {
        result.failed = result.attempted.max(1);
    }
    result
}
