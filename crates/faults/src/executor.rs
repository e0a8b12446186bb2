//! The fault executor: drives a [`FaultPlan`] against a live [`Cluster`].
//!
//! The executor runs on its own injector thread next to the workload
//! driver.  It watches the cluster's global commit version and fires each
//! plan event once its version threshold is reached, resolving leader /
//! follower picks against the shard group's membership *at crash time* (the
//! membership only changes through the plan's own earlier events, so
//! resolution is deterministic for a given plan).  When the load window
//! closes, any event the load did not reach is fired immediately — a
//! schedule always executes completely — and every target the plan left
//! crashed (there should be none for generated plans) is recovered so the
//! invariant oracle inspects a fully-healed cluster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tashkent::{Cluster, CertifierNodeId};
use tashkent_common::{Error, Result};

use crate::plan::{
    FaultAction, FaultEvent, FaultPlan, FaultTarget, LinkAction, LinkDirection, LinkEvent,
    LinkTarget, NodePick,
};

/// One executed event, with its pick resolved to a concrete victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredEvent {
    /// The crash/recover pair this event belongs to.
    pub fault: usize,
    /// `true` for the crash half, `false` for the recover half.
    pub crash: bool,
    /// The planned target.
    pub target: FaultTarget,
    /// The concrete certifier node hit (certifier faults only).
    pub node: Option<CertifierNodeId>,
    /// The planned injection point.
    pub planned_at: tashkent::Version,
}

/// The executed schedule: every fired event in order.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Events in firing order.
    pub fired: Vec<FiredEvent>,
    /// Recover attempts that had to be retried (transient unavailability
    /// while the cluster was still degraded).
    pub recover_retries: u64,
    /// Planned recovers that kept failing mid-schedule and were left for
    /// the healing epilogue (non-quorum-safe schedules only).
    pub deferred_recovers: u64,
    /// Link sever/heal events fired (partition schedules only; the field
    /// is appended so existing trace consumers are unaffected).
    pub link_events: u64,
}

impl ExecutionTrace {
    /// The resolved victims in firing order — the replay-determinism
    /// fingerprint compared across runs of the same seed.
    #[must_use]
    pub fn victims(&self) -> Vec<(usize, bool, FaultTarget, Option<CertifierNodeId>)> {
        self.fired
            .iter()
            .map(|e| (e.fault, e.crash, e.target, e.node))
            .collect()
    }
}

/// One entry of the merged node+link firing timeline.
enum MergedEvent<'p> {
    Node(&'p FaultEvent),
    Link(&'p LinkEvent),
}

/// Executes a fault plan against a cluster.
pub struct FaultExecutor {
    cluster: Arc<Cluster>,
    plan: FaultPlan,
    /// How often the injector polls the system version.
    pub poll_interval: Duration,
}

/// Handle to a running injector thread.
pub struct FaultInjector {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<Result<ExecutionTrace>>,
}

impl FaultInjector {
    /// Signals the end of the load window and waits for the injector to
    /// drain the remaining events and heal the cluster.
    ///
    /// # Errors
    ///
    /// Propagates recovery errors (e.g. a shard group left without a donor,
    /// which generated plans never produce).
    pub fn finish(self) -> Result<ExecutionTrace> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .map_err(|_| Error::Protocol("fault injector thread panicked".into()))?
    }
}

impl FaultExecutor {
    /// Creates an executor for `plan` over `cluster`.
    #[must_use]
    pub fn new(cluster: Arc<Cluster>, plan: FaultPlan) -> Self {
        FaultExecutor {
            cluster,
            plan,
            poll_interval: Duration::from_micros(200),
        }
    }

    /// Spawns the injector thread.  Run the workload driver concurrently,
    /// then call [`FaultInjector::finish`].
    #[must_use]
    pub fn start(self) -> FaultInjector {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::spawn(move || self.run(&thread_stop));
        FaultInjector { stop, handle }
    }

    /// Merges the crash/recover and link streams into one firing order by
    /// ascending `at_version` (node events first at equal thresholds, so a
    /// crash and a sever pinned to the same version replay in a stable
    /// order).
    fn merged_timeline<'p>(plan: &'p FaultPlan) -> Vec<MergedEvent<'p>> {
        let mut timeline: Vec<MergedEvent<'p>> = plan
            .events
            .iter()
            .map(MergedEvent::Node)
            .chain(plan.links.iter().map(MergedEvent::Link))
            .collect();
        timeline.sort_by_key(|e| match e {
            MergedEvent::Node(event) => (event.at_version, 0u8),
            MergedEvent::Link(link) => (link.at_version, 1u8),
        });
        timeline
    }

    fn run(self, stop: &AtomicBool) -> Result<ExecutionTrace> {
        let mut trace = ExecutionTrace::default();
        // Resolved victim per fault id, for the recover half and the healing
        // epilogue.
        let mut resolved: Vec<Option<(FaultTarget, Option<CertifierNodeId>)>> = Vec::new();
        for merged in Self::merged_timeline(&self.plan) {
            let at_version = match merged {
                MergedEvent::Node(event) => event.at_version,
                MergedEvent::Link(link) => link.at_version,
            };
            // Wait for the injection point; once the load window closes the
            // remaining events fire immediately so the schedule always
            // completes.
            while !stop.load(Ordering::Relaxed) && self.cluster.system_version() < at_version {
                thread::sleep(self.poll_interval);
            }
            match merged {
                MergedEvent::Node(event) => self.fire(event, &mut resolved, &mut trace)?,
                MergedEvent::Link(link) => self.fire_link(link, &mut trace),
            }
        }
        // Healing epilogue: heal severed links first — every recovery path
        // below (donor state transfer, replica catch-up) may need the wire.
        // Then certifier groups, then replicas: replica catch-up runs
        // against healed groups.
        self.cluster.heal_all_links();
        let entries: Vec<(FaultTarget, Option<CertifierNodeId>)> =
            resolved.into_iter().flatten().collect();
        for (target, node) in &entries {
            if let (FaultTarget::CertifierNode { shard, .. }, Some(node)) = (target, node) {
                if !self
                    .cluster
                    .certifier()
                    .local()
                    .shard_up_nodes(*shard)
                    .contains(node)
                {
                    self.recover_with_retry(&mut trace, |c| {
                        c.recover_certifier_shard_node(*shard, *node)
                    })?;
                }
            }
        }
        for (target, _) in &entries {
            if let FaultTarget::Replica(r) = target {
                if self.cluster.replica(*r).is_crashed() {
                    self.recover_with_retry(&mut trace, |c| c.recover_replica(*r).map(|_| ()))?;
                }
            }
        }
        Ok(trace)
    }

    fn fire(
        &self,
        event: &FaultEvent,
        resolved: &mut Vec<Option<(FaultTarget, Option<CertifierNodeId>)>>,
        trace: &mut ExecutionTrace,
    ) -> Result<()> {
        match event.action {
            FaultAction::Crash { fault, target } => {
                let node = match target {
                    FaultTarget::Replica(r) => {
                        self.cluster.crash_replica(r);
                        None
                    }
                    FaultTarget::CertifierNode { shard, pick } => {
                        let handle = self.cluster.certifier();
                        let certifier = handle.local();
                        let leader = certifier.shard_leader(shard);
                        let victim = match pick {
                            NodePick::Leader => leader,
                            NodePick::Follower(k) => {
                                let followers: Vec<CertifierNodeId> = certifier
                                    .shard_up_nodes(shard)
                                    .into_iter()
                                    .filter(|n| *n != leader)
                                    .collect();
                                // Quorum safety guarantees at least one up
                                // follower; fall back to the leader for
                                // degenerate hand-built plans.
                                followers
                                    .get(k % followers.len().max(1))
                                    .copied()
                                    .unwrap_or(leader)
                            }
                        };
                        self.cluster.crash_certifier_shard_node(shard, victim);
                        Some(victim)
                    }
                };
                if resolved.len() <= fault {
                    resolved.resize(fault + 1, None);
                }
                resolved[fault] = Some((target, node));
                trace.fired.push(FiredEvent {
                    fault,
                    crash: true,
                    target,
                    node,
                    planned_at: event.at_version,
                });
            }
            FaultAction::Recover { fault } => {
                let (target, node) = resolved
                    .get(fault)
                    .copied()
                    .flatten()
                    .ok_or_else(|| {
                        Error::Protocol(format!("recover of unknown fault #{fault}"))
                    })?;
                // A recover that keeps failing (the cluster can be too
                // degraded mid-schedule — e.g. a replica recover during a
                // total certifier outage) is *deferred*, not fatal: the
                // target stays down and the healing epilogue below retries
                // it once the rest of the schedule has run.
                let outcome = match (target, node) {
                    (FaultTarget::Replica(r), _) => {
                        self.recover_with_retry(trace, |c| c.recover_replica(r).map(|_| ()))
                    }
                    (FaultTarget::CertifierNode { shard, .. }, Some(victim)) => {
                        self.recover_with_retry(trace, |c| {
                            c.recover_certifier_shard_node(shard, victim)
                        })
                    }
                    (FaultTarget::CertifierNode { .. }, None) => {
                        return Err(Error::Protocol(format!(
                            "fault #{fault} resolved without a victim node"
                        )));
                    }
                };
                if outcome.is_err() {
                    trace.deferred_recovers += 1;
                }
                trace.fired.push(FiredEvent {
                    fault,
                    crash: false,
                    target,
                    node,
                    planned_at: event.at_version,
                });
            }
        }
        Ok(())
    }

    /// Fires one link event.  On a non-loopback cluster the hooks are
    /// no-ops (`false`), which keeps hand-built link plans harmless against
    /// in-process clusters.
    fn fire_link(&self, link: &LinkEvent, trace: &mut ExecutionTrace) {
        match link.action {
            LinkAction::Sever(target, direction) => {
                let replicas: Vec<usize> = match target {
                    LinkTarget::Replica(r) => vec![r],
                    LinkTarget::AllReplicas => (0..self.cluster.replica_count()).collect(),
                };
                for r in replicas {
                    match direction {
                        LinkDirection::Both => {
                            self.cluster.sever_certifier_link(r);
                        }
                        LinkDirection::ToCertifier => {
                            self.cluster.sever_certifier_link_one_way(r, true);
                        }
                        LinkDirection::FromCertifier => {
                            self.cluster.sever_certifier_link_one_way(r, false);
                        }
                    }
                }
            }
            // Heals cover every direction, so a one-way sever and its heal
            // pair exactly like a symmetric one.
            LinkAction::Heal(LinkTarget::Replica(r)) => {
                self.cluster.heal_certifier_link(r);
            }
            LinkAction::Heal(LinkTarget::AllReplicas) => {
                self.cluster.heal_all_links();
            }
        }
        trace.link_events += 1;
    }

    /// Runs a recovery action, retrying briefly: a recover fired while the
    /// cluster is still degraded can be transiently refused (e.g. a replica
    /// catch-up racing an unavailable component).
    fn recover_with_retry(
        &self,
        trace: &mut ExecutionTrace,
        mut action: impl FnMut(&Cluster) -> Result<()>,
    ) -> Result<()> {
        const ATTEMPTS: usize = 50;
        let mut last = None;
        for attempt in 0..ATTEMPTS {
            match action(&self.cluster) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if attempt + 1 < ATTEMPTS {
                        trace.recover_retries += 1;
                        thread::sleep(Duration::from_millis(2));
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.expect("loop ran at least once"))
    }
}
