//! The three benchmarks of the paper's evaluation, expressed against the
//! cluster's transaction API.
//!
//! * [`AllUpdates`] — back-to-back single-row updates on disjoint keys
//!   (54-byte writesets, no conflicts): the worst case for a replicated
//!   system.
//! * [`TpcB`] — the TPC-B schema (branches, tellers, accounts, history) and
//!   its read-modify-write transaction, which has both reads and writes plus
//!   real write-write conflicts on branches and tellers.
//! * [`TpcW`] — a compact TPC-W bookstore running the shopping mix: 80 %
//!   read-only interactions (browse / search / best-sellers) and 20 % updates
//!   (shopping-cart and buy-confirm), with 275-byte average writesets.
//! * [`TpcWBrowsing`] — the same bookstore running the *browsing* mix: 95 %
//!   read-only interactions and per-interaction think times, the
//!   read-dominated scenario of the paper's TPC-W experiments.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;
use tashkent::{Cluster, Error, Result, TableId, Value};
use tashkent_common::ClientId;

/// A benchmark that can set up its schema and run client transactions
/// against a cluster.
pub trait Workload: Send + Sync {
    /// The benchmark's name.
    fn name(&self) -> &str;

    /// Creates tables and loads initial rows on every replica.
    fn setup(&self, cluster: &Cluster);

    /// Runs one client transaction against the given replica.  Returns
    /// `Ok(true)` if the transaction was an update, `Ok(false)` for a
    /// read-only transaction, and an error if it was aborted.
    fn run_one(&self, cluster: &Cluster, replica: usize, client: ClientId, rng: &mut StdRng)
        -> Result<bool>;

    /// Think time a closed-loop client waits between consecutive
    /// interactions (TPC-W models users reading a page before clicking).
    /// The driver sleeps this after every transaction; zero — the default —
    /// keeps clients saturating, which is what the throughput benchmarks
    /// want.
    fn think_time(&self) -> Duration {
        Duration::ZERO
    }
}

/// The AllUpdates micro-benchmark (Section 9.1).
#[derive(Debug, Clone)]
pub struct AllUpdates {
    /// Number of rows per client (clients write disjoint key ranges so that
    /// transactions never conflict).
    pub rows_per_client: i64,
}

impl Default for AllUpdates {
    fn default() -> Self {
        AllUpdates {
            rows_per_client: 128,
        }
    }
}

impl AllUpdates {
    fn table(&self, cluster: &Cluster) -> TableId {
        cluster.replica(0).database().table_id("updates").expect("setup ran")
    }
}

impl Workload for AllUpdates {
    fn name(&self) -> &str {
        "AllUpdates"
    }

    fn setup(&self, cluster: &Cluster) {
        cluster.create_table("updates", &["counter", "payload"]);
    }

    fn run_one(
        &self,
        cluster: &Cluster,
        replica: usize,
        client: ClientId,
        rng: &mut StdRng,
    ) -> Result<bool> {
        let table = self.table(cluster);
        let key = client.0 as i64 * self.rows_per_client + rng.gen_range(0..self.rows_per_client);
        let session = cluster.session(replica);
        let tx = session.begin();
        let counter = tx
            .read(table, key)?
            .and_then(|r| r.get("counter").and_then(Value::as_int))
            .unwrap_or(0);
        // A 54-byte-ish writeset: counter plus a small payload.
        tx.insert(
            table,
            key,
            vec![
                ("counter".into(), Value::Int(counter + 1)),
                ("payload".into(), Value::Bytes(vec![0xAB; 32])),
            ],
        )?;
        tx.commit()?;
        Ok(true)
    }
}

/// The TPC-B benchmark (Section 9.3).
#[derive(Debug, Clone)]
pub struct TpcB {
    /// Number of branches (scale factor).
    pub branches: i64,
    /// Tellers per branch.
    pub tellers_per_branch: i64,
    /// Accounts per branch.
    pub accounts_per_branch: i64,
}

impl Default for TpcB {
    fn default() -> Self {
        TpcB {
            branches: 4,
            tellers_per_branch: 10,
            accounts_per_branch: 1000,
        }
    }
}

impl TpcB {
    fn tables(&self, cluster: &Cluster) -> (TableId, TableId, TableId, TableId) {
        let db = cluster.replica(0).database();
        (
            db.table_id("branches").expect("setup ran"),
            db.table_id("tellers").expect("setup ran"),
            db.table_id("accounts").expect("setup ran"),
            db.table_id("history").expect("setup ran"),
        )
    }
}

impl Workload for TpcB {
    fn name(&self) -> &str {
        "TPC-B"
    }

    fn setup(&self, cluster: &Cluster) {
        let branches = cluster.create_table("branches", &["balance"]);
        let tellers = cluster.create_table("tellers", &["branch", "balance"]);
        let accounts = cluster.create_table("accounts", &["branch", "balance"]);
        cluster.create_table("history", &["account", "delta"]);
        // Load initial rows through bulk load on every replica so that the
        // load does not count as replicated traffic.
        for r in 0..cluster.replica_count() {
            let db = cluster.replica(r).database();
            let mut branch_rows = Vec::new();
            let mut teller_rows = Vec::new();
            let mut account_rows = Vec::new();
            for b in 0..self.branches {
                branch_rows.push((
                    tashkent::RowKey::Int(b),
                    tashkent::Row::from_columns(vec![("balance".into(), Value::Int(0))]),
                ));
                for t in 0..self.tellers_per_branch {
                    teller_rows.push((
                        tashkent::RowKey::Int(b * self.tellers_per_branch + t),
                        tashkent::Row::from_columns(vec![
                            ("branch".into(), Value::Int(b)),
                            ("balance".into(), Value::Int(0)),
                        ]),
                    ));
                }
                for a in 0..self.accounts_per_branch {
                    account_rows.push((
                        tashkent::RowKey::Int(b * self.accounts_per_branch + a),
                        tashkent::Row::from_columns(vec![
                            ("branch".into(), Value::Int(b)),
                            ("balance".into(), Value::Int(0)),
                        ]),
                    ));
                }
            }
            db.bulk_load(branches, branch_rows, tashkent::Version::ZERO);
            db.bulk_load(tellers, teller_rows, tashkent::Version::ZERO);
            db.bulk_load(accounts, account_rows, tashkent::Version::ZERO);
        }
        // The bulk load bypasses the WAL; seal it as the recovery baseline
        // so crashed replicas come back with their initial rows.
        cluster.checkpoint();
    }

    fn run_one(
        &self,
        cluster: &Cluster,
        replica: usize,
        client: ClientId,
        rng: &mut StdRng,
    ) -> Result<bool> {
        let (branches, tellers, accounts, history) = self.tables(cluster);
        let branch = rng.gen_range(0..self.branches);
        let teller = branch * self.tellers_per_branch + rng.gen_range(0..self.tellers_per_branch);
        let account =
            branch * self.accounts_per_branch + rng.gen_range(0..self.accounts_per_branch);
        let delta = rng.gen_range(-100_000i64..100_000);

        let session = cluster.session(replica);
        let tx = session.begin();
        let read_balance = |table, key| -> Result<i64> {
            Ok(tx
                .read(table, key)?
                .and_then(|r| r.get("balance").and_then(Value::as_int))
                .unwrap_or(0))
        };
        let account_balance = read_balance(accounts, account)?;
        tx.update(
            accounts,
            account,
            vec![("balance".into(), Value::Int(account_balance + delta))],
        )?;
        let teller_balance = read_balance(tellers, teller)?;
        tx.update(
            tellers,
            teller,
            vec![("balance".into(), Value::Int(teller_balance + delta))],
        )?;
        let branch_balance = read_balance(branches, branch)?;
        tx.update(
            branches,
            branch,
            vec![("balance".into(), Value::Int(branch_balance + delta))],
        )?;
        tx.insert(
            history,
            (client.0 as i64, rng.gen_range(0..i64::MAX / 2)),
            vec![
                ("account".into(), Value::Int(account)),
                ("delta".into(), Value::Int(delta)),
            ],
        )?;
        tx.commit()?;
        Ok(true)
    }
}

/// A compact TPC-W bookstore with the shopping mix (Section 9.4).
#[derive(Debug, Clone)]
pub struct TpcW {
    /// Number of items in the catalogue.
    pub items: i64,
    /// Number of registered customers.
    pub customers: i64,
    /// Fraction of update interactions (0.2 for the shopping mix).
    pub update_fraction: f64,
}

impl Default for TpcW {
    fn default() -> Self {
        TpcW {
            items: 1000,
            customers: 288,
            update_fraction: 0.2,
        }
    }
}

impl TpcW {
    fn tables(&self, cluster: &Cluster) -> (TableId, TableId, TableId, TableId) {
        let db = cluster.replica(0).database();
        (
            db.table_id("items").expect("setup ran"),
            db.table_id("customers").expect("setup ran"),
            db.table_id("orders").expect("setup ran"),
            db.table_id("cart_lines").expect("setup ran"),
        )
    }
}

impl Workload for TpcW {
    fn name(&self) -> &str {
        "TPC-W"
    }

    fn setup(&self, cluster: &Cluster) {
        let items = cluster.create_table("items", &["title", "price", "stock"]);
        let customers = cluster.create_table("customers", &["name", "orders"]);
        cluster.create_table("orders", &["customer", "item", "qty", "total"]);
        cluster.create_table("cart_lines", &["item", "qty"]);
        for r in 0..cluster.replica_count() {
            let db = cluster.replica(r).database();
            let item_rows = (0..self.items)
                .map(|i| {
                    (
                        tashkent::RowKey::Int(i),
                        tashkent::Row::from_columns(vec![
                            ("title".into(), Value::Text(format!("book-{i}"))),
                            ("price".into(), Value::Float(5.0 + (i % 40) as f64)),
                            ("stock".into(), Value::Int(1000)),
                        ]),
                    )
                })
                .collect();
            let customer_rows = (0..self.customers)
                .map(|c| {
                    (
                        tashkent::RowKey::Int(c),
                        tashkent::Row::from_columns(vec![
                            ("name".into(), Value::Text(format!("customer-{c}"))),
                            ("orders".into(), Value::Int(0)),
                        ]),
                    )
                })
                .collect();
            db.bulk_load(items, item_rows, tashkent::Version::ZERO);
            db.bulk_load(customers, customer_rows, tashkent::Version::ZERO);
        }
        // As for TPC-B: the bulk-loaded catalogue must survive recovery.
        cluster.checkpoint();
    }

    fn run_one(
        &self,
        cluster: &Cluster,
        replica: usize,
        client: ClientId,
        rng: &mut StdRng,
    ) -> Result<bool> {
        let (items, customers, orders, cart_lines) = self.tables(cluster);
        let session = cluster.session(replica);
        let is_update = rng.gen::<f64>() < self.update_fraction;
        let tx = session.begin();
        if !is_update {
            // Browsing interaction: read a handful of items and a customer.
            for _ in 0..8 {
                let item = rng.gen_range(0..self.items);
                let _ = tx.read(items, item)?;
            }
            let _ = tx.read(customers, rng.gen_range(0..self.customers))?;
            tx.commit()?;
            return Ok(false);
        }
        // Buy-confirm interaction: add a cart line, decrement stock, record
        // the order and bump the customer's order count.
        let customer = rng.gen_range(0..self.customers);
        let item = rng.gen_range(0..self.items);
        let qty = rng.gen_range(1..4);
        let item_row = tx.read(items, item)?.ok_or(Error::RowNotFound {
            table: "items".into(),
            key: item.to_string(),
        })?;
        let stock = item_row.get("stock").and_then(Value::as_int).unwrap_or(0);
        let price = item_row.get("price").and_then(Value::as_float).unwrap_or(0.0);
        tx.insert(
            cart_lines,
            (client.0 as i64, rng.gen_range(0..i64::MAX / 2)),
            vec![("item".into(), Value::Int(item)), ("qty".into(), Value::Int(qty))],
        )?;
        tx.update(items, item, vec![("stock".into(), Value::Int(stock - qty))])?;
        tx.insert(
            orders,
            (customer, rng.gen_range(0..i64::MAX / 2)),
            vec![
                ("customer".into(), Value::Int(customer)),
                ("item".into(), Value::Int(item)),
                ("qty".into(), Value::Int(qty)),
                ("total".into(), Value::Float(price * qty as f64)),
            ],
        )?;
        let order_count = tx
            .read(customers, customer)?
            .and_then(|r| r.get("orders").and_then(Value::as_int))
            .unwrap_or(0);
        tx.update(
            customers,
            customer,
            vec![("orders".into(), Value::Int(order_count + 1))],
        )?;
        tx.commit()?;
        Ok(true)
    }
}

/// The TPC-W *browsing* mix: the same bookstore as [`TpcW`], but 95 %
/// read-only interactions and a per-interaction think time.
///
/// This is the read-dominated scenario of the paper's TPC-W experiments
/// (browsing mix, Section 9.4): almost all interactions browse the
/// catalogue, updates are rare, and closed-loop clients pause between
/// clicks — so a replica serves many attached clients with modest load, and
/// almost nothing funnels through the certifier.
#[derive(Debug, Clone)]
pub struct TpcWBrowsing {
    inner: TpcW,
    think_time: Duration,
}

impl Default for TpcWBrowsing {
    fn default() -> Self {
        TpcWBrowsing::new(Duration::from_millis(2))
    }
}

impl TpcWBrowsing {
    /// A browsing-mix bookstore with the default catalogue and the given
    /// think time (the TPC-W specification's think times average seconds;
    /// tests and benches pass milliseconds to keep wall-clock short).
    #[must_use]
    pub fn new(think_time: Duration) -> Self {
        TpcWBrowsing {
            inner: TpcW {
                // 95 % browsing / 5 % buy-confirm: the TPC-W browsing mix.
                update_fraction: 0.05,
                ..TpcW::default()
            },
            think_time,
        }
    }

    /// Overrides the catalogue size (items and customers scale together in
    /// the compact bookstore).
    #[must_use]
    pub fn with_catalogue(mut self, items: i64, customers: i64) -> Self {
        self.inner.items = items;
        self.inner.customers = customers;
        self
    }
}

impl Workload for TpcWBrowsing {
    fn name(&self) -> &str {
        "TPC-W-browsing"
    }

    fn setup(&self, cluster: &Cluster) {
        self.inner.setup(cluster);
    }

    fn run_one(
        &self,
        cluster: &Cluster,
        replica: usize,
        client: ClientId,
        rng: &mut StdRng,
    ) -> Result<bool> {
        self.inner.run_one(cluster, replica, client, rng)
    }

    fn think_time(&self) -> Duration {
        self.think_time
    }
}

/// The TPC-W *shopping* mix with per-interaction think times: the same
/// bookstore and 80/20 read/update split as [`TpcW`], paced like a real
/// closed-loop TPC-W emulated browser.
///
/// A stub in the sense that it adds nothing to [`TpcW`] but the pacing —
/// the interaction mix itself is already the shopping mix.  It exists so
/// the `figures` harness can drive both paper mixes through one interface
/// (`TpcWBrowsing` / `TpcWShopping`).
#[derive(Debug, Clone)]
pub struct TpcWShopping {
    inner: TpcW,
    think_time: Duration,
}

impl Default for TpcWShopping {
    fn default() -> Self {
        TpcWShopping::new(Duration::from_millis(2))
    }
}

impl TpcWShopping {
    /// A shopping-mix bookstore with the default catalogue and the given
    /// think time.
    #[must_use]
    pub fn new(think_time: Duration) -> Self {
        TpcWShopping {
            inner: TpcW::default(),
            think_time,
        }
    }

    /// Overrides the catalogue size.
    #[must_use]
    pub fn with_catalogue(mut self, items: i64, customers: i64) -> Self {
        self.inner.items = items;
        self.inner.customers = customers;
        self
    }
}

impl Workload for TpcWShopping {
    fn name(&self) -> &str {
        "TPC-W-shopping"
    }

    fn setup(&self, cluster: &Cluster) {
        self.inner.setup(cluster);
    }

    fn run_one(
        &self,
        cluster: &Cluster,
        replica: usize,
        client: ClientId,
        rng: &mut StdRng,
    ) -> Result<bool> {
        self.inner.run_one(cluster, replica, client, rng)
    }

    fn think_time(&self) -> Duration {
        self.think_time
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use tashkent::{ClusterConfig, SystemKind};

    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(SystemKind::TashkentMw)).unwrap()
    }

    #[test]
    fn allupdates_transactions_commit_and_replicate() {
        let cluster = cluster();
        let workload = AllUpdates::default();
        workload.setup(&cluster);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..20 {
            let replica = i % cluster.replica_count();
            workload
                .run_one(&cluster, replica, ClientId(i as u64), &mut rng)
                .unwrap();
        }
        assert_eq!(cluster.system_version(), tashkent::Version(20));
    }

    #[test]
    fn tpcb_preserves_balance_invariant() {
        let cluster = cluster();
        let workload = TpcB {
            branches: 2,
            tellers_per_branch: 3,
            accounts_per_branch: 50,
        };
        workload.setup(&cluster);
        let mut rng = StdRng::seed_from_u64(2);
        let mut committed = 0;
        for i in 0..30 {
            if workload
                .run_one(&cluster, i % 2, ClientId(i as u64), &mut rng)
                .is_ok()
            {
                committed += 1;
            }
        }
        assert!(committed > 0);
        cluster.sync_all().unwrap();
        // Invariant: sum of branch balances == sum of teller balances ==
        // sum of account deltas, on every replica.
        for r in 0..cluster.replica_count() {
            let db = cluster.replica(r).database();
            let sum = |name: &str| -> i64 {
                let table = db.table_id(name).unwrap();
                let tx = db.begin();
                let total = tx
                    .scan(table)
                    .unwrap()
                    .iter()
                    .filter_map(|(_, row)| row.get("balance").and_then(Value::as_int))
                    .sum();
                tx.abort();
                total
            };
            assert_eq!(sum("branches"), sum("tellers"), "replica {r}");
            assert_eq!(sum("branches"), sum("accounts"), "replica {r}");
        }
    }

    #[test]
    fn tpcw_browsing_is_read_dominated_with_think_time() {
        let cluster = cluster();
        let workload = TpcWBrowsing::new(Duration::from_millis(1)).with_catalogue(50, 10);
        assert_eq!(workload.think_time(), Duration::from_millis(1));
        workload.setup(&cluster);
        let mut rng = StdRng::seed_from_u64(9);
        let mut updates = 0u64;
        let mut reads = 0u64;
        for i in 0..60 {
            match workload.run_one(&cluster, i % 2, ClientId(i as u64), &mut rng) {
                Ok(true) => updates += 1,
                Ok(false) => reads += 1,
                Err(e) => assert!(e.is_retryable_abort(), "unexpected error {e}"),
            }
        }
        // 95 % browsing: reads dominate heavily.
        assert!(reads >= updates * 5, "reads {reads} updates {updates}");
    }

    #[test]
    fn tpcw_mixes_reads_and_updates() {
        let cluster = cluster();
        let workload = TpcW {
            items: 100,
            customers: 20,
            update_fraction: 0.3,
        };
        workload.setup(&cluster);
        let mut rng = StdRng::seed_from_u64(3);
        let mut updates = 0;
        let mut reads = 0;
        for i in 0..40 {
            match workload.run_one(&cluster, i % 2, ClientId(i as u64), &mut rng) {
                Ok(true) => updates += 1,
                Ok(false) => reads += 1,
                Err(e) => assert!(e.is_retryable_abort(), "unexpected error {e}"),
            }
        }
        assert!(reads > updates, "reads {reads} updates {updates}");
        assert!(updates > 0);
        assert_eq!(
            cluster.system_version().value(),
            u64::try_from(updates).unwrap()
        );
    }
}
