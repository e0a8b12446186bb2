//! The repo's benchmark: Base / Tashkent-MW / Tashkent-API commit latency
//! and throughput, end to end and layer by layer.  See `README.md`.
//!
//! ```text
//! tashkent-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                        [--smoke] [--out FILE] [--trace-dir DIR]
//! tashkent-benchmark compare A.json B.json [--manifest BENCHMARK.json]
//! ```
//!
//! `run` without `--workload` runs every workload, untraced then traced.
//! Each run ends with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`.  The exit code is non-zero on any correctness violation.

mod assemble;
mod compare;
mod drills;
mod driver;
mod json;
mod pass;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use compare::Manifest;
use json::Json;
use run::{Options, RunResult};
use workload::{WorkloadSpec, WORKLOADS};

/// Used when `--seed` / `--seconds` are not given; `--seconds` matches
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SEED: u64 = 20_060_418;
const DEFAULT_SECONDS: f64 = 27.0;

const USAGE: &str = "usage:
  tashkent-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--trace-dir DIR]
  tashkent-benchmark compare A.json B.json [--manifest BENCHMARK.json]";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>, switches: &[&str]) -> Args {
        let mut parsed = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    parsed.flags.push((name.to_owned(), None))
                }
                Some(name) => parsed.flags.push((name.to_owned(), args.next())),
                None => parsed.words.push(arg),
            }
        }
        parsed
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| flag == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(flag, _)| flag == name) {
            None => Ok(None),
            Some((_, Some(text))) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
            Some((_, None)) => Err(format!("--{name} needs a value")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(flag, _)| !known.contains(&flag.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown option --{flag}")),
            None => Ok(()),
        }
    }
}

fn append_results(path: &str, results: &[RunResult]) -> Result<(), String> {
    let mut records = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text)? {
            Json::Arr(records) => records,
            _ => return Err(format!("{path} is not an array of run records")),
        },
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(error) => return Err(format!("{path}: {error}")),
    };
    records.extend(results.iter().map(RunResult::to_json));
    let lines: Vec<String> = records.iter().map(Json::to_line).collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
        .map_err(|e| format!("{path}: {e}"))
}

fn run_command(args: &Args) -> Result<bool, String> {
    args.check_known(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "smoke",
        "out",
        "trace-dir",
    ])?;
    let options = Options {
        seed: args.value("seed")?.unwrap_or(DEFAULT_SEED),
        seconds: args.value("seconds")?.unwrap_or(DEFAULT_SECONDS),
        smoke: args.has("smoke"),
        trace_dir: args
            .value("trace-dir")?
            .unwrap_or_else(|| "benchmark/out".to_owned()),
    };
    if !(options.seconds > 0.0 && options.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace: Option<u8> = args.value("trace")?;
    if matches!(trace, Some(t) if t > 1) {
        return Err("--trace is 0 or 1".to_owned());
    }
    let workloads: Vec<&'static WorkloadSpec> = match args.value::<String>("workload")? {
        Some(name) => vec![workload::find(&name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })?],
        None => WORKLOADS.iter().collect(),
    };
    // One named workload runs in the mode asked for (untraced by default);
    // the whole suite runs both modes unless one is named.
    let modes: &[bool] = match (trace, workloads.len()) {
        (Some(0), _) | (None, 1) => &[false],
        (Some(_), _) => &[true],
        (None, _) => &[false, true],
    };
    let mut results = Vec::new();
    for spec in workloads {
        for &traced in modes {
            let result = if traced {
                run::run_traced(spec, &options)
            } else {
                run::run_untraced(spec, &options)
            };
            result.print();
            results.push(result);
        }
    }
    if let Some(path) = args.value::<String>("out")? {
        append_results(&path, &results)?;
    }
    Ok(results.iter().all(RunResult::correct))
}

fn compare_command(args: &Args) -> Result<bool, String> {
    args.check_known(&["manifest"])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err(USAGE.to_owned());
    };
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    let manifest_path = args
        .value("manifest")?
        .unwrap_or_else(|| "BENCHMARK.json".to_owned());
    let manifest = Manifest::parse(&read(&manifest_path)?)?;
    compare::compare(
        &manifest,
        &Json::parse(&read(a)?)?,
        &Json::parse(&read(b)?)?,
    )
}

/// The child side of a run: one system's pass, reported as one JSON line
/// (see `pass.rs`).  Not meant to be typed by hand.
fn pass_command(args: &Args) -> Result<bool, String> {
    let lookup = |name: &str| -> Result<String, String> {
        args.value(name)?
            .ok_or_else(|| format!("pass needs --{name}"))
    };
    let report = pass::measure(&pass::PassSpec::from_flags(&lookup)?)?;
    println!("{}", report.to_json().to_line());
    Ok(true)
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1), &["smoke"]);
    let outcome = match args.words.first().map(String::as_str) {
        Some("run") if args.words.len() == 1 => run_command(&args),
        Some("compare") => compare_command(&args),
        Some("pass") if args.words.len() == 1 => pass_command(&args),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> (Json, Manifest) {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        (Json::parse(&text).unwrap(), Manifest::parse(&text).unwrap())
    }

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn printed_metric_names_are_well_formed_and_equal_the_declared_set() {
        let (doc, manifest) = manifest();
        let printed_e2e = report::end_to_end_names();
        let printed_layers = report::per_layer_names();
        for (name, unit) in printed_e2e.iter().chain(&printed_layers) {
            assert!(well_formed(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit:?}"
            );
        }
        let declared_e2e: Vec<(String, String)> = manifest
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        let owned = |names: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            names.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        assert_eq!(owned(printed_e2e), declared_e2e);
        let declared_layers: Vec<(String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let text = |key| m.get(key).and_then(Json::as_str).unwrap().to_owned();
                (text("name"), text("unit"))
            })
            .collect();
        assert_eq!(owned(printed_layers), declared_layers);
    }

    #[test]
    fn the_manifest_keeps_to_its_contract() {
        let (doc, manifest) = manifest();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let declared: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
        let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, built);
        for workload in doc.get("workloads").unwrap().as_array().unwrap() {
            let why = workload.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert!(well_formed(workload.get("name").unwrap().as_str().unwrap()));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let setup = manifest
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        for metric in &manifest.end_to_end {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
            assert!(
                metric.bound <= setup.bound,
                "set-up time carries the largest bound"
            );
        }
        for entry in doc.get("per_layer").unwrap().as_array().unwrap() {
            let better = entry.get("better").unwrap().as_str().unwrap();
            assert!(better == "higher" || better == "lower");
            assert_eq!(entry.as_object().unwrap().len(), 3);
        }
        let command = doc.get("command").unwrap().as_array().unwrap();
        assert!(command.len() <= 32);
        assert_eq!(command.last().unwrap().as_str(), Some("run"));
    }

    #[test]
    fn arguments_parse_in_the_form_the_contract_appends() {
        let line = "run --workload tpcb_disk --seed 7 --seconds 24 --trace 1 --smoke";
        let args = Args::parse(line.split(' ').map(str::to_owned), &["smoke"]);
        assert_eq!(args.words, ["run"]);
        assert_eq!(
            args.value::<String>("workload").unwrap().as_deref(),
            Some("tpcb_disk")
        );
        assert_eq!(args.value::<u64>("seed").unwrap(), Some(7));
        assert_eq!(args.value::<f64>("seconds").unwrap(), Some(24.0));
        assert_eq!(args.value::<u8>("trace").unwrap(), Some(1));
        assert!(args.has("smoke"));
        assert!(args.value::<u64>("workload").is_err());
        assert!(args.check_known(&["workload"]).is_err());
    }
}
