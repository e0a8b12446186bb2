//! Runs the TPC-W browsing and shopping mixes on real clusters for every
//! system across replica counts and prints one driver-report row each.
//!
//! Run with: `cargo run --release --example tpcw_cluster [-- --quick]`

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("{}", tashkent_workloads::run_tpcw_cluster(quick));
}
