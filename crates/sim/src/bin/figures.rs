//! Regenerates the figures and tables of the paper's evaluation section
//! from the calibrated simulator.
//!
//! Usage:
//!
//! ```text
//! cargo run -p tashkent-sim --release --bin figures -- all
//! cargo run -p tashkent-sim --release --bin figures -- fig4 fig14 grouping
//! cargo run -p tashkent-sim --release --bin figures -- --quick all
//! ```
//!
//! No id (or `all`) prints every figure; `--quick` shortens each run.  The
//! real-cluster reports live in the `tpcw_cluster` and `timeline` examples.

use tashkent_sim::{run_figure, FigureId};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tokens: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let figures: Vec<FigureId> = if tokens.is_empty() || tokens.iter().any(|t| *t == "all") {
        FigureId::ALL.to_vec()
    } else {
        tokens
            .iter()
            .filter_map(|t| {
                let id = FigureId::parse(t);
                if id.is_none() {
                    eprintln!(
                        "unknown figure id '{t}' (expected fig4..fig14, standalone, grouping)"
                    );
                }
                id
            })
            .collect()
    };
    for id in figures {
        println!("{}", run_figure(id, quick));
    }
}
