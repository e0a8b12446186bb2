//! The benchmark's workloads and their seeded inputs.
//!
//! Nothing in this file touches program code: a workload is a *description*
//! (what the cluster looks like, which transaction mix runs on it) plus a
//! deterministic per-client stream of transaction inputs derived from the
//! `--seed`.  The program only ever receives the generated inputs through
//! `assemble`'s thin transaction API; workload names never reach it.

/// The three replication designs the paper compares, run back to back on
/// identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Base,
    Mw,
    Api,
}

impl System {
    pub const ALL: [System; 3] = [System::Base, System::Mw, System::Api];

    /// Metric-name prefix.
    pub fn prefix(self) -> &'static str {
        match self {
            System::Base => "base",
            System::Mw => "mw",
            System::Api => "api",
        }
    }
}

/// Which tables the cluster is loaded with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schema {
    /// TPC-B: branches, tellers, accounts, history.
    Bank,
    /// AllUpdates: one table of per-client counters.
    Counters,
}

/// The transaction mix clients draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every transaction is a TPC-B transfer.
    Transfers,
    /// Every transaction bumps one counter on the client's own key range.
    Bumps,
    /// `read_pct` percent read-only lookups, the rest TPC-B transfers.
    ReadMostly { read_pct: u64 },
}

/// TPC-B scale (fixed; the issue's sizing).
pub const BRANCHES: i64 = 16;
pub const TELLERS_PER_BRANCH: i64 = 10;
pub const ACCOUNTS_PER_BRANCH: i64 = 1000;
/// AllUpdates: rows in each client's private key range.
pub const COUNTER_ROWS_PER_CLIENT: i64 = 1024;

/// Replicas, each with one closed-loop client thread (2 threads = `nproc`
/// on the reference box), and the size of the (single-shard) certifier group.
pub const REPLICAS: usize = 2;
pub const CERTIFIER_NODES: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub schema: Schema,
    pub mix: Mix,
    /// Every replica WAL and certifier-node log sits on a slept 8 ms
    /// (+ ≤2 ms jitter) simulated disk; otherwise disks cost nothing.
    pub slept_disk: bool,
    /// The certifier is reached over real TCP on 127.0.0.1.
    pub tcp: bool,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "tpcb_disk",
        schema: Schema::Bank,
        mix: Mix::Transfers,
        slept_disk: true,
        tcp: false,
    },
    WorkloadSpec {
        name: "allupdates_cpu",
        schema: Schema::Counters,
        mix: Mix::Bumps,
        slept_disk: false,
        tcp: false,
    },
    WorkloadSpec {
        name: "readmix_cpu",
        schema: Schema::Bank,
        mix: Mix::ReadMostly { read_pct: 90 },
        slept_disk: false,
        tcp: false,
    },
    WorkloadSpec {
        name: "tpcb_tcp",
        schema: Schema::Bank,
        mix: Mix::Transfers,
        slept_disk: false,
        tcp: true,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's own generator, so inputs depend on the seed
/// and on nothing the program (or its vendored `rand`) might change.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`.
    pub fn stream(seed: u64, lane: u64) -> Rng {
        let mut root = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        // Discard a few outputs so neighbouring lanes decorrelate.
        root.next_u64();
        root.next_u64();
        Rng(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).  The modulo bias is below 2^-40
    /// for every bound used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One transaction's inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxInput {
    /// TPC-B: read-modify-write of one account, its teller and its branch,
    /// plus a history insert under a key unique to the client.
    Transfer {
        branch: i64,
        teller: i64,
        account: i64,
        delta: i64,
        history_key: (i64, i64),
    },
    /// AllUpdates: read one counter row of the client's own range and write
    /// it back incremented.
    Bump { key: i64 },
    /// Read-only: three account point reads.
    Lookup { accounts: [i64; 3] },
}

impl TxInput {
    pub fn is_update(&self) -> bool {
        !matches!(self, TxInput::Lookup { .. })
    }
}

/// The deterministic input stream of one client.
#[derive(Debug, Clone)]
pub struct InputStream {
    rng: Rng,
    client: i64,
    mix: Mix,
    sequence: i64,
}

impl InputStream {
    pub fn new(seed: u64, client: usize, mix: Mix) -> InputStream {
        InputStream {
            rng: Rng::stream(seed, client as u64),
            client: client as i64,
            mix,
            sequence: 0,
        }
    }

    fn transfer(&mut self) -> TxInput {
        let branch = self.rng.below(BRANCHES as u64) as i64;
        let teller = branch * TELLERS_PER_BRANCH + self.rng.below(TELLERS_PER_BRANCH as u64) as i64;
        let account =
            branch * ACCOUNTS_PER_BRANCH + self.rng.below(ACCOUNTS_PER_BRANCH as u64) as i64;
        let delta = self.rng.below(200_000) as i64 - 100_000;
        TxInput::Transfer {
            branch,
            teller,
            account,
            delta,
            history_key: (self.client, self.sequence),
        }
    }
}

impl Iterator for InputStream {
    type Item = TxInput;

    fn next(&mut self) -> Option<TxInput> {
        self.sequence += 1;
        Some(match self.mix {
            Mix::Transfers => self.transfer(),
            Mix::Bumps => TxInput::Bump {
                key: self.client * COUNTER_ROWS_PER_CLIENT
                    + self.rng.below(COUNTER_ROWS_PER_CLIENT as u64) as i64,
            },
            Mix::ReadMostly { read_pct } => {
                if self.rng.below(100) < read_pct {
                    let total = (BRANCHES * ACCOUNTS_PER_BRANCH) as u64;
                    TxInput::Lookup {
                        accounts: std::array::from_fn(|_| self.rng.below(total) as i64),
                    }
                } else {
                    self.transfer()
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in WORKLOADS {
            let a: Vec<TxInput> = InputStream::new(7, 1, spec.mix).take(200).collect();
            let b: Vec<TxInput> = InputStream::new(7, 1, spec.mix).take(200).collect();
            let c: Vec<TxInput> = InputStream::new(8, 1, spec.mix).take(200).collect();
            let d: Vec<TxInput> = InputStream::new(7, 0, spec.mix).take(200).collect();
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}: seed must matter", spec.name);
            assert_ne!(a, d, "{}: client must matter", spec.name);
        }
    }

    #[test]
    fn inputs_respect_the_schema_ranges() {
        for input in InputStream::new(3, 1, Mix::Transfers).take(2000) {
            let TxInput::Transfer {
                branch,
                teller,
                account,
                delta,
                history_key,
            } = input
            else {
                panic!("transfers only");
            };
            assert!((0..BRANCHES).contains(&branch));
            assert_eq!(teller / TELLERS_PER_BRANCH, branch);
            assert_eq!(account / ACCOUNTS_PER_BRANCH, branch);
            assert!((-100_000..100_000).contains(&delta));
            assert_eq!(history_key.0, 1);
        }
        for input in InputStream::new(3, 1, Mix::Bumps).take(2000) {
            let TxInput::Bump { key } = input else {
                panic!("bumps only")
            };
            assert_eq!(
                key / COUNTER_ROWS_PER_CLIENT,
                1,
                "clients own disjoint ranges"
            );
        }
    }

    #[test]
    fn read_mostly_mix_is_about_ninety_percent_reads() {
        let reads = InputStream::new(11, 0, Mix::ReadMostly { read_pct: 90 })
            .take(10_000)
            .filter(|i| !i.is_update())
            .count();
        assert!((8_800..=9_200).contains(&reads), "{reads}");
    }

    #[test]
    fn history_keys_are_unique_per_client() {
        let mut keys: Vec<(i64, i64)> = InputStream::new(5, 0, Mix::Transfers)
            .take(1000)
            .map(|i| match i {
                TxInput::Transfer { history_key, .. } => history_key,
                _ => unreachable!(),
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1000);
    }
}
