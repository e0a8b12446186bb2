//! Discrete-event performance model of the Base / Tashkent-MW /
//! Tashkent-API replicated database systems.
//!
//! The paper's scaling results (Figures 4–14) come from a 16-node cluster
//! with 7200 rpm disks whose `fsync` costs roughly 8 ms.  Reproducing those
//! figures with the real in-process engine would require either that exact
//! hardware or hours of wall-clock sleeping, so this crate substitutes a
//! **discrete-event simulation** that models precisely the resources the
//! paper identifies as decisive:
//!
//! * the replica's log IO channel (serial fsyncs for Base, group-committed
//!   fsyncs for Tashkent-API, none for Tashkent-MW), shared or dedicated;
//! * the certifier's log IO channel, which batches all outstanding writesets
//!   into one fsync;
//! * per-transaction CPU costs at the replica (execution and remote-writeset
//!   application) and at the certifier (writeset intersection);
//! * closed-loop clients (each replica driven at a fixed number of
//!   back-to-back clients, as in Section 9.1);
//! * artificial conflicts that force Tashkent-API to serialise some commits
//!   (Section 5.2.1), and forced certifier abort rates (Section 9.5).
//!
//! The protocol *logic* (certification, grouping, ordering) lives in the real
//! crates and is tested there; the simulator only reproduces the queueing
//! behaviour, with virtual time, so that a 15-replica, multi-minute
//! experiment finishes in milliseconds.
//!
//! Modules:
//!
//! * [`resources`] — virtual-time FIFO servers and group-commit disks.
//! * [`workload`] — per-benchmark cost profiles (AllUpdates, TPC-B, TPC-W).
//! * [`model`] — the event-driven cluster model and [`model::SimReport`].
//! * [`experiments`] — ready-made parameter sets for every figure and table
//!   in the paper's evaluation section.
//!
//! The `figures` binary prints them: `cargo run -p tashkent-sim --release
//! --bin figures -- all` (add `--quick` for shortened runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod model;
pub mod resources;
pub mod workload;

pub use experiments::{Experiment, ExperimentOutput, FigureId};
pub use model::{SimConfig, SimReport, Simulator};
pub use workload::WorkloadProfile;

/// Runs one figure/table experiment and returns its rendered text.
#[must_use]
pub fn run_figure(id: FigureId, quick: bool) -> String {
    let experiment = if quick {
        Experiment::quick(id)
    } else {
        Experiment::new(id)
    };
    experiment.run().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_figure_renders_rows() {
        let text = run_figure(FigureId::Fig4, true);
        assert!(text.contains("fig4"));
        assert!(text.contains("tashMW"));
        assert!(text.contains("base"));
    }
}
