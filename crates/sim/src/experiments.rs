//! Ready-made experiment definitions for every figure and table of the
//! paper's evaluation (Section 9).
//!
//! Each [`FigureId`] knows its workload, IO-channel mode, which systems to
//! plot and which metric the paper reports (throughput or response time);
//! [`Experiment::run`] sweeps the replica counts 1–15 and produces the same
//! curves, ready to be printed by this crate's `figures` binary.

use tashkent_common::{IoChannelMode, Series, SystemKind};

use crate::model::{SimConfig, SimReport, Simulator};
use crate::workload::WorkloadProfile;

/// The metric a figure plots on its y axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Requests per second (committed transactions only).
    Throughput,
    /// Mean response time in milliseconds.
    ResponseTime,
    /// Read-only vs update response times (Figure 13).
    ResponseTimeByClass,
}

/// Identifier of one figure or table of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FigureId {
    Fig4,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    Fig9,
    Fig10,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    /// Section 9.2 standalone vs 1-replica Tashkent-MW comparison.
    TableStandalone,
    /// Section 9.2 grouping factor and certifier utilisation at 15 replicas.
    TableGrouping,
}

impl FigureId {
    /// All figures/tables in paper order.
    pub const ALL: [FigureId; 13] = [
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig6,
        FigureId::Fig7,
        FigureId::Fig8,
        FigureId::Fig9,
        FigureId::Fig10,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
        FigureId::Fig14,
        FigureId::TableStandalone,
        FigureId::TableGrouping,
    ];

    /// Parses a figure id from a command-line token such as `fig4`,
    /// `standalone` or `grouping`.
    #[must_use]
    pub fn parse(token: &str) -> Option<FigureId> {
        match token.to_ascii_lowercase().as_str() {
            "fig4" => Some(FigureId::Fig4),
            "fig5" => Some(FigureId::Fig5),
            "fig6" => Some(FigureId::Fig6),
            "fig7" => Some(FigureId::Fig7),
            "fig8" => Some(FigureId::Fig8),
            "fig9" => Some(FigureId::Fig9),
            "fig10" => Some(FigureId::Fig10),
            "fig11" => Some(FigureId::Fig11),
            "fig12" => Some(FigureId::Fig12),
            "fig13" => Some(FigureId::Fig13),
            "fig14" => Some(FigureId::Fig14),
            "standalone" | "tab-standalone" => Some(FigureId::TableStandalone),
            "grouping" | "tab-groupsize" => Some(FigureId::TableGrouping),
            _ => None,
        }
    }

    /// Short identifier used in output file names and headings.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Fig6 => "fig6",
            FigureId::Fig7 => "fig7",
            FigureId::Fig8 => "fig8",
            FigureId::Fig9 => "fig9",
            FigureId::Fig10 => "fig10",
            FigureId::Fig11 => "fig11",
            FigureId::Fig12 => "fig12",
            FigureId::Fig13 => "fig13",
            FigureId::Fig14 => "fig14",
            FigureId::TableStandalone => "standalone",
            FigureId::TableGrouping => "grouping",
        }
    }

    /// Human-readable description matching the paper's caption.
    #[must_use]
    pub fn caption(self) -> &'static str {
        match self {
            FigureId::Fig4 => "Throughput for AllUpdates (shared IO)",
            FigureId::Fig5 => "Response time for AllUpdates (shared IO)",
            FigureId::Fig6 => "Throughput for AllUpdates (dedicated IO)",
            FigureId::Fig7 => "Response time for AllUpdates (dedicated IO)",
            FigureId::Fig8 => "Throughput for TPC-B (shared IO)",
            FigureId::Fig9 => "Response time for TPC-B (shared IO)",
            FigureId::Fig10 => "Throughput for TPC-B (dedicated IO)",
            FigureId::Fig11 => "Response time for TPC-B (dedicated IO)",
            FigureId::Fig12 => "Throughput for TPC-W shopping mix (shared IO)",
            FigureId::Fig13 => "Response time for TPC-W shopping mix (shared IO)",
            FigureId::Fig14 => "Certifier goodput under forced abort rates (dedicated IO)",
            FigureId::TableStandalone => {
                "Standalone database vs 1-replica Tashkent-MW (Section 9.2)"
            }
            FigureId::TableGrouping => {
                "Certifier grouping factor and utilisation at 15 replicas (Section 9.2)"
            }
        }
    }

    /// The metric the paper plots for this figure.
    #[must_use]
    pub fn metric(self) -> Metric {
        match self {
            FigureId::Fig4
            | FigureId::Fig6
            | FigureId::Fig8
            | FigureId::Fig10
            | FigureId::Fig12
            | FigureId::Fig14
            | FigureId::TableStandalone
            | FigureId::TableGrouping => Metric::Throughput,
            FigureId::Fig5 | FigureId::Fig7 | FigureId::Fig9 | FigureId::Fig11 => {
                Metric::ResponseTime
            }
            FigureId::Fig13 => Metric::ResponseTimeByClass,
        }
    }

    fn workload(self) -> WorkloadProfile {
        match self {
            FigureId::Fig4
            | FigureId::Fig5
            | FigureId::Fig6
            | FigureId::Fig7
            | FigureId::Fig14
            | FigureId::TableStandalone
            | FigureId::TableGrouping => WorkloadProfile::all_updates(),
            FigureId::Fig8 | FigureId::Fig9 | FigureId::Fig10 | FigureId::Fig11 => {
                WorkloadProfile::tpcb()
            }
            FigureId::Fig12 | FigureId::Fig13 => WorkloadProfile::tpcw_shopping(),
        }
    }

    fn io_mode(self) -> IoChannelMode {
        match self {
            FigureId::Fig4
            | FigureId::Fig5
            | FigureId::Fig8
            | FigureId::Fig9
            | FigureId::Fig12
            | FigureId::Fig13 => IoChannelMode::Shared,
            FigureId::Fig6
            | FigureId::Fig7
            | FigureId::Fig10
            | FigureId::Fig11
            | FigureId::Fig14
            | FigureId::TableStandalone
            | FigureId::TableGrouping => IoChannelMode::Dedicated,
        }
    }

    fn systems(self) -> Vec<SystemKind> {
        match self {
            // Throughput figures include the tashAPInoCERT analysis curve.
            FigureId::Fig4 | FigureId::Fig6 | FigureId::Fig8 | FigureId::Fig10 => vec![
                SystemKind::Base,
                SystemKind::TashkentMw,
                SystemKind::TashkentApi,
                SystemKind::TashkentApiNoCertDurability,
            ],
            FigureId::Fig14 => vec![
                SystemKind::Base,
                SystemKind::TashkentMw,
                SystemKind::TashkentApi,
            ],
            FigureId::TableStandalone | FigureId::TableGrouping => {
                vec![SystemKind::TashkentMw]
            }
            _ => vec![
                SystemKind::Base,
                SystemKind::TashkentMw,
                SystemKind::TashkentApi,
            ],
        }
    }

    fn replica_counts(self) -> Vec<usize> {
        match self {
            FigureId::TableStandalone => vec![1],
            FigureId::TableGrouping => vec![15],
            FigureId::Fig14 => vec![1, 3, 5, 8, 11, 15],
            _ => vec![1, 3, 5, 8, 11, 15],
        }
    }
}

/// One runnable experiment (a figure or table of the paper).
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Which figure this experiment regenerates.
    pub id: FigureId,
    /// Virtual measurement duration per data point, in seconds.
    pub duration: f64,
    /// Virtual warm-up per data point, in seconds.
    pub warmup: f64,
}

/// The output of one experiment: a set of labelled curves plus free-form
/// notes (grouping factors, utilisations) for the table-style artefacts.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The figure this output belongs to.
    pub id: FigureId,
    /// Throughput curves (one per system), where applicable.
    pub throughput: Vec<Series>,
    /// Response-time curves (one per system), where applicable.
    pub response_time: Vec<Series>,
    /// Extra key/value observations (group sizes, utilisations, ratios).
    pub notes: Vec<(String, f64)>,
}

impl Experiment {
    /// Creates the experiment for a figure with the default (paper-length)
    /// virtual duration.
    #[must_use]
    pub fn new(id: FigureId) -> Self {
        Experiment {
            id,
            duration: 30.0,
            warmup: 3.0,
        }
    }

    /// A faster variant for tests and `figures --quick`.
    #[must_use]
    pub fn quick(id: FigureId) -> Self {
        Experiment {
            id,
            duration: 8.0,
            warmup: 1.0,
        }
    }

    fn run_point(
        &self,
        system: SystemKind,
        replicas: usize,
        forced_abort_rate: f64,
    ) -> SimReport {
        let mut config = SimConfig::paper(
            system,
            replicas,
            self.id.workload(),
            self.id.io_mode(),
        );
        config.duration = self.duration;
        config.warmup = self.warmup;
        config.forced_abort_rate = forced_abort_rate;
        Simulator::new(config).run()
    }

    /// Runs the experiment, sweeping systems and replica counts.
    #[must_use]
    pub fn run(&self) -> ExperimentOutput {
        match self.id {
            FigureId::Fig14 => self.run_abort_rates(),
            FigureId::TableStandalone => self.run_standalone(),
            FigureId::TableGrouping => self.run_grouping(),
            FigureId::Fig13 => self.run_tpcw_response(),
            _ => self.run_sweep(),
        }
    }

    fn run_sweep(&self) -> ExperimentOutput {
        let mut throughput = Vec::new();
        let mut response_time = Vec::new();
        for system in self.id.systems() {
            let mut tput = Series::new(system.label());
            let mut resp = Series::new(system.label());
            for replicas in self.id.replica_counts() {
                let report = self.run_point(system, replicas, 0.0);
                tput.push(replicas, report.throughput, report.response_time_ms);
                resp.push(replicas, report.throughput, report.response_time_ms);
            }
            throughput.push(tput);
            response_time.push(resp);
        }
        ExperimentOutput {
            id: self.id,
            throughput,
            response_time,
            notes: Vec::new(),
        }
    }

    /// Figure 14: goodput of the three systems under forced abort rates of
    /// 0 %, 20 % and 40 %.
    fn run_abort_rates(&self) -> ExperimentOutput {
        let mut throughput = Vec::new();
        for system in self.id.systems() {
            for rate in [0.0, 0.2, 0.4] {
                let mut series =
                    Series::new(format!("{} ({:.0}% aborts)", system.label(), rate * 100.0));
                for replicas in self.id.replica_counts() {
                    let report = self.run_point(system, replicas, rate);
                    series.push(replicas, report.throughput, report.response_time_ms);
                }
                throughput.push(series);
            }
        }
        ExperimentOutput {
            id: self.id,
            throughput,
            response_time: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Section 9.2: the replication middleware adds little overhead — a
    /// standalone database vs a 1-replica Tashkent-MW system.
    fn run_standalone(&self) -> ExperimentOutput {
        let mut notes = Vec::new();
        let mut throughput = Vec::new();
        for io_mode in [IoChannelMode::Shared, IoChannelMode::Dedicated] {
            let mut standalone_cfg =
                SimConfig::standalone(WorkloadProfile::all_updates(), io_mode);
            standalone_cfg.duration = self.duration;
            standalone_cfg.warmup = self.warmup;
            let standalone = Simulator::new(standalone_cfg).run();
            let mut mw_cfg = SimConfig::paper(
                SystemKind::TashkentMw,
                1,
                WorkloadProfile::all_updates(),
                io_mode,
            );
            mw_cfg.duration = self.duration;
            mw_cfg.warmup = self.warmup;
            let mw = Simulator::new(mw_cfg).run();
            let mut s = Series::new(format!("standalone ({})", io_mode.label()));
            s.push(1, standalone.throughput, standalone.response_time_ms);
            throughput.push(s);
            let mut s = Series::new(format!("tashMW 1-replica ({})", io_mode.label()));
            s.push(1, mw.throughput, mw.response_time_ms);
            throughput.push(s);
            notes.push((
                format!("overhead ratio ({})", io_mode.label()),
                mw.throughput / standalone.throughput,
            ));
        }
        ExperimentOutput {
            id: self.id,
            throughput,
            response_time: Vec::new(),
            notes,
        }
    }

    /// Section 9.2: certifier grouping factor and utilisation at 15 replicas.
    fn run_grouping(&self) -> ExperimentOutput {
        let report = self.run_point(SystemKind::TashkentMw, 15, 0.0);
        let notes = vec![
            ("throughput (req/s)".to_string(), report.throughput),
            (
                "writesets per certifier fsync".to_string(),
                report.certifier_group_size,
            ),
            (
                "certifier disk utilisation".to_string(),
                report.certifier_disk_utilisation,
            ),
            (
                "certifier CPU utilisation".to_string(),
                report.certifier_cpu_utilisation,
            ),
        ];
        let mut series = Series::new("tashMW");
        series.push(15, report.throughput, report.response_time_ms);
        ExperimentOutput {
            id: self.id,
            throughput: vec![series],
            response_time: Vec::new(),
            notes,
        }
    }

    /// Figure 13: read-only vs update response times for TPC-W.
    fn run_tpcw_response(&self) -> ExperimentOutput {
        let mut response_time = Vec::new();
        for system in self.id.systems() {
            let mut read_only = Series::new(format!("{} read-only", system.label()));
            let mut updates = Series::new(format!("{} update", system.label()));
            for replicas in self.id.replica_counts() {
                let report = self.run_point(system, replicas, 0.0);
                read_only.push(
                    replicas,
                    report.throughput,
                    report.read_only_response_time_ms,
                );
                updates.push(replicas, report.throughput, report.update_response_time_ms);
            }
            response_time.push(read_only);
            response_time.push(updates);
        }
        ExperimentOutput {
            id: self.id,
            throughput: Vec::new(),
            response_time,
            notes: Vec::new(),
        }
    }
}

impl ExperimentOutput {
    /// Renders the output as aligned text rows (what the `figures` binary
    /// prints and what `EXPERIMENTS.md` records).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id.label(), self.id.caption()));
        let render_series = |series: &[Series], metric: &str, out: &mut String| {
            if series.is_empty() {
                return;
            }
            out.push_str(&format!("## {metric}\n"));
            out.push_str(&format!("{:<28}", "replicas"));
            let replica_counts: Vec<usize> = series[0]
                .points
                .iter()
                .map(|p| p.replicas)
                .collect();
            for r in &replica_counts {
                out.push_str(&format!("{r:>10}"));
            }
            out.push('\n');
            for s in series {
                out.push_str(&format!("{:<28}", s.label));
                for p in &s.points {
                    let value = if metric.contains("response") {
                        p.response_time_ms
                    } else {
                        p.throughput
                    };
                    out.push_str(&format!("{value:>10.1}"));
                }
                out.push('\n');
            }
        };
        render_series(&self.throughput, "throughput (req/s)", &mut out);
        render_series(&self.response_time, "response time (ms)", &mut out);
        if !self.notes.is_empty() {
            out.push_str("## notes\n");
            for (key, value) in &self.notes {
                out.push_str(&format!("{key:<40} {value:>10.2}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_parse_and_label_roundtrip() {
        for id in FigureId::ALL {
            assert_eq!(FigureId::parse(id.label()), Some(id));
            assert!(!id.caption().is_empty());
        }
        assert_eq!(FigureId::parse("nope"), None);
        assert_eq!(FigureId::parse("FIG4"), Some(FigureId::Fig4));
    }

    #[test]
    fn fig4_reproduces_the_paper_ordering() {
        let output = Experiment::quick(FigureId::Fig4).run();
        assert_eq!(output.throughput.len(), 4);
        let at = |label: &str| {
            output
                .throughput
                .iter()
                .find(|s| s.label == label)
                .unwrap()
                .points
                .last()
                .unwrap()
                .throughput
        };
        let base = at("base");
        let mw = at("tashMW");
        let api = at("tashAPI");
        let api_nocert = at("tashAPInoCERT");
        // The paper's headline: MW ~5x Base, API ~3x Base at 15 replicas.
        assert!(mw > 3.0 * base, "MW {mw} vs Base {base}");
        assert!(api > 1.8 * base, "API {api} vs Base {base}");
        assert!(mw >= api, "MW {mw} should beat API {api}");
        assert!(api_nocert >= api, "removing the certifier fsync helps API");
        // Render produces a table containing every curve.
        let text = output.render();
        for label in ["base", "tashMW", "tashAPI", "tashAPInoCERT"] {
            assert!(text.contains(label));
        }
    }

    #[test]
    fn fig14_shows_goodput_ordering_under_aborts() {
        let output = Experiment::quick(FigureId::Fig14).run();
        // Nine curves: three systems x three abort rates.
        assert_eq!(output.throughput.len(), 9);
        // Higher abort rates always reduce goodput for the same system.
        for system in ["base", "tashMW", "tashAPI"] {
            let get = |rate: &str| {
                output
                    .throughput
                    .iter()
                    .find(|s| s.label == format!("{system} ({rate}% aborts)"))
                    .unwrap()
                    .points
                    .last()
                    .unwrap()
                    .throughput
            };
            // Goodput shrinks as the forced abort rate grows.
            assert!(get("0") > get("40"), "{system}: {} vs {}", get("0"), get("40"));
        }
        // Even at 40% aborts, Tashkent-MW beats Base at 0%.
        let mw40 = output
            .throughput
            .iter()
            .find(|s| s.label == "tashMW (40% aborts)")
            .unwrap()
            .points
            .last()
            .unwrap()
            .throughput;
        let base0 = output
            .throughput
            .iter()
            .find(|s| s.label == "base (0% aborts)")
            .unwrap()
            .points
            .last()
            .unwrap()
            .throughput;
        assert!(mw40 > base0);
    }

    #[test]
    fn standalone_table_shows_low_middleware_overhead() {
        let output = Experiment::quick(FigureId::TableStandalone).run();
        assert_eq!(output.notes.len(), 2);
        for (key, ratio) in &output.notes {
            assert!(
                *ratio > 0.75 && *ratio < 1.5,
                "overhead ratio {key} = {ratio}"
            );
        }
    }

    #[test]
    fn grouping_table_reports_certifier_efficiency() {
        let output = Experiment::quick(FigureId::TableGrouping).run();
        let group = output
            .notes
            .iter()
            .find(|(k, _)| k.contains("writesets per"))
            .unwrap()
            .1;
        let disk = output
            .notes
            .iter()
            .find(|(k, _)| k.contains("disk utilisation"))
            .unwrap()
            .1;
        let cpu = output
            .notes
            .iter()
            .find(|(k, _)| k.contains("CPU utilisation"))
            .unwrap()
            .1;
        // Section 9.2: ~29 writesets per fsync; the certifier CPU is nearly
        // idle and its disk keeps up with the full cluster's update rate.
        assert!(group > 8.0, "group size {group}");
        assert!(disk <= 1.0, "disk utilisation {disk}");
        assert!(cpu < 0.5, "cpu utilisation {cpu}");
    }

    #[test]
    fn fig12_tpcw_base_and_api_are_indistinguishable() {
        let output = Experiment::quick(FigureId::Fig12).run();
        let at = |label: &str| {
            output
                .throughput
                .iter()
                .find(|s| s.label == label)
                .unwrap()
                .points
                .last()
                .unwrap()
                .throughput
        };
        let base = at("base");
        let api = at("tashAPI");
        let mw = at("tashMW");
        // Low update rate: Base and Tashkent-API perform about the same,
        // Tashkent-MW is at least as good (shared-IO congestion hurts the
        // other two).
        assert!((api - base).abs() / base < 0.25, "base {base} api {api}");
        assert!(mw >= base * 0.95, "mw {mw} base {base}");
    }

    #[test]
    fn fig13_read_only_latencies_are_similar_across_systems() {
        let output = Experiment::quick(FigureId::Fig13).run();
        assert_eq!(output.response_time.len(), 6);
        let read_only: Vec<f64> = output
            .response_time
            .iter()
            .filter(|s| s.label.contains("read-only"))
            .map(|s| s.points.last().unwrap().response_time_ms)
            .collect();
        let max = read_only.iter().cloned().fold(0.0, f64::max);
        let min = read_only.iter().cloned().fold(f64::MAX, f64::min);
        // Read-only transactions are handled identically in all systems.
        assert!(max / min < 1.6, "read-only spread {min}..{max}");
    }
}
