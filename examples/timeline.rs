//! Runs a TPC-B burst on a real Tashkent-API cluster and prints the merged
//! observability timeline as Chrome-trace JSON for Perfetto /
//! `chrome://tracing`.
//!
//! Run with: `cargo run --release --example timeline [-- --quick] > trace.json`

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("{}", tashkent_workloads::run_timeline(quick));
}
