//! Lockstep co-simulation of kernel nodes over an interconnect.
//!
//! [`Cluster`] owns N independent kernel [`Node`]s plus one
//! [`Interconnect`] and advances them in conservative virtual-time
//! lockstep. Each iteration ("window") it finds the cluster-wide next
//! event time `t`, runs every node up to — but excluding —
//! `t + lookahead` (the interconnect's minimum wire latency), then
//! drains the cross-node messages captured during the window, costs them
//! through the interconnect, and posts the deliveries into the
//! destination nodes' event queues. The lookahead rule makes this safe:
//! a message sent at time `s >= t` cannot be delivered before
//! `s + alpha_min >= t + lookahead`, i.e. never *inside* the window that
//! produced it, so no node ever has to roll back.
//!
//! Determinism: windows are a pure function of node state, messages are
//! routed in (source node, capture order) — a deterministic order — and
//! the interconnect is itself deterministic, so a cluster run is exactly
//! as replayable as a single-node run. The same seed produces the same
//! fingerprint on the fast and reference event loops.
//!
//! The cluster supports **concurrent jobs**: each [`Cluster::launch`]
//! places a job on a subset of nodes ([`Placement`]), jobs sharing a
//! node must reserve disjoint channel-id ranges ([`JobSpec::id_range`]),
//! and completion is tracked per [`ClusterJobHandle`] so a batch driver
//! (see `hpl-batch`) can overlap jobs and harvest them independently.
//!
//! Clusters are constructed through [`ClusterBuilder`]: nodes, fabric,
//! host-side execution policy and the [`FaultPlan`] are all fixed at
//! build time, so a run's configuration is part of its identity. Node
//! crash/drain/restart events from the plan are applied at window
//! boundaries of the lockstep loop (see [`Cluster::step_window`]): a
//! crashed node freezes (its pending deliveries drop and it no longer
//! contributes to the cluster-wide next event time), any job with a live
//! launcher tree on it is marked failed, and a later restart rebuilds
//! the node from the builder's factory at the cluster's current time —
//! new launches then re-register their channels on the fresh kernel.

use crate::fault::{FaultPlan, NodeFault};
use crate::net::{Interconnect, LinkFaults, NetConfig};
use crate::pool::WorkerPool;
use crate::window::Window;
use hpl_kernel::observe::ChromeTraceSink;
use hpl_kernel::{NetMsg, Node, ObserverId, Pid, RunOutcome, TaskState};
use hpl_mpi::{find_mpiexec, spawn_job_tree_with, JobSpec, RankWrap, SchedMode};
use hpl_sim::time::{SimDuration, SimTime};
use hpl_sim::MinTree;
use std::fmt::Write as _;

/// Host-side execution policy of the lockstep driver.
///
/// Within a conservative window node steps are independent, so the
/// driver may fan the active nodes out over a persistent host thread
/// pool; the observable result is **byte-identical** to the serial path
/// (same fingerprints, traces, metrics and reports) because all
/// cross-node effects are merged serially in fixed `(node, capture)`
/// order after the window — see [`Cluster::step_window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimConfig {
    /// Step windows on a worker pool instead of in a serial loop.
    pub parallel: bool,
    /// Stepping threads to use when `parallel` (including the calling
    /// thread). `0` = the host's available parallelism.
    pub threads: usize,
    /// Minimum number of *active* nodes (nodes with an event inside the
    /// window) before a window is worth fanning out; sparser windows run
    /// serially even when `parallel` is set. Windows dense enough to
    /// matter are exactly the ones that amortise the round-trip.
    pub parallel_min_active: usize,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig {
            parallel: false,
            threads: 0,
            parallel_min_active: 8,
        }
    }
}

impl CosimConfig {
    /// Serial lockstep (the default).
    pub fn serial() -> Self {
        CosimConfig::default()
    }

    /// Parallel lockstep on the host's available cores.
    pub fn parallel() -> Self {
        CosimConfig {
            parallel: true,
            ..CosimConfig::default()
        }
    }

    /// Override the stepping-thread count (including the caller).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the dense-window threshold.
    pub fn with_min_active(mut self, min_active: usize) -> Self {
        self.parallel_min_active = min_active;
        self
    }

    /// Stepping threads a cluster of `nodes` would actually use: the
    /// explicit count, else host parallelism, never more than the node
    /// count and at least one. A cluster resolves the host parallelism
    /// once, at build.
    pub fn effective_threads(&self, nodes: usize) -> usize {
        let t = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        t.clamp(1, nodes.max(1))
    }
}

/// Handle to a job running across (a subset of) the cluster: one
/// launcher tree per job node.
#[derive(Debug, Clone)]
pub struct ClusterJobHandle {
    /// Index of this job in the cluster's launch order (stable; jobs are
    /// never removed from the job table).
    pub job_id: usize,
    /// Cluster node hosting each job-relative node: `placement[j]` is
    /// the cluster index of job node `j`.
    pub placement: Vec<usize>,
    /// Root (`perf`) pid on each job node, index = **job-relative**
    /// node (cluster node `placement[j]`).
    pub perf_pids: Vec<Pid>,
    /// Per-job-node launch times (nodes need not share a clock).
    pub launched_at: Vec<SimTime>,
}

/// A coordination runtime interposed between a batch engine and the
/// cluster: it owns how jobs are launched (so it can shim each rank's
/// program on the way in) and how fractional CPU shares handed down by
/// a policy like DFRS are *realized* on the nodes — by weighted kernel
/// slicing, a user-space lease arbiter, or anything else. Batch
/// engines treat the trait as opaque: with no coordinator installed
/// they call [`Cluster::launch`] directly and shares remain the
/// advisory annotations they were. `hpl-coord` provides the reference
/// implementations.
pub trait JobCoordinator {
    /// Launch `job`, standing in for [`Cluster::launch`]. Implementors
    /// typically delegate to [`Cluster::launch_with`] to interpose a
    /// rank shim and/or enroll the job with an initial share.
    fn launch(
        &mut self,
        cluster: &mut Cluster,
        job: &JobSpec,
        mode: SchedMode,
        placement: Placement,
    ) -> ClusterJobHandle;

    /// Realize gang `gang`'s milli-CPU share on cluster node `node`
    /// (called between windows whenever a policy re-divides a node).
    fn set_share(&mut self, cluster: &mut Cluster, node: usize, gang: u64, share_milli: u32);
}

/// A launched job. Jobs stay in the table after completing (a handle's
/// `job_id` indexes it); message routing and occupancy reach them
/// through the per-node live-job index instead.
struct ActiveJob {
    job: JobSpec,
    /// Job-relative node -> cluster node.
    placement: Vec<usize>,
    /// Root (`perf`) pid per job-relative node.
    perf_pids: Vec<Pid>,
    /// Node incarnation at launch, per job-relative node: a pid is only
    /// meaningful on the incarnation that spawned it, so every task-table
    /// read is guarded by this (a restarted node has a fresh table).
    incarnations: Vec<u64>,
    /// `job.id_range()` as `(start, end)`.
    ids: (u64, u64),
    /// Set when a node hosting a live launcher tree of this job
    /// crashes. Failed jobs release occupancy, stop routing, and never
    /// complete; a batch driver requeues them.
    failed: bool,
    /// Exit stamps of trees that had already exited when their node
    /// crashed, per job-relative node. The node's task table dies with
    /// the crash (a restart replaces it), so completion and end-time
    /// queries read these instead.
    exits: Vec<Option<TreeExit>>,
}

/// Exit stamps of one job's launcher tree on one node, copied out of
/// the node's task table before a crash discards it.
#[derive(Debug, Clone, Copy)]
struct TreeExit {
    /// When the root (`perf`) task exited: the node was released.
    perf: SimTime,
    /// When the tree's `mpiexec` exited (`None` if it never spawned).
    mpiexec: Option<SimTime>,
}

/// Exit stamps of the tree rooted at `perf` on `node`, `None` while the
/// root is alive.
fn tree_exit(node: &Node, perf: Pid) -> Option<TreeExit> {
    Some(TreeExit {
        perf: root_exit(node, perf)?,
        mpiexec: find_mpiexec(node, perf).and_then(|m| node.tasks.get(m).exited_at),
    })
}

/// The root (`perf`) exit stamp of the tree on `node`, `None` while the
/// root is alive. Unlike [`tree_exit`] it does not search the task
/// table for `mpiexec`, so polling a job's end costs O(1) per node.
fn root_exit(node: &Node, perf: Pid) -> Option<SimTime> {
    let t = node.tasks.get(perf);
    if t.state != TaskState::Dead {
        return None;
    }
    t.exited_at
}

/// A set of node indices with O(1) insertion: `list` holds each member
/// once, in insertion order; `member[i]` says whether `i` is listed.
struct NodeSet {
    member: Vec<bool>,
    list: Vec<usize>,
}

impl NodeSet {
    /// The set holding every node of an `n`-node cluster.
    fn full(n: usize) -> Self {
        NodeSet {
            member: vec![true; n],
            list: (0..n).collect(),
        }
    }

    fn insert(&mut self, i: usize) {
        if !self.member[i] {
            self.member[i] = true;
            self.list.push(i);
        }
    }

    fn contains(&self, i: usize) -> bool {
        self.member[i]
    }

    fn clear(&mut self) {
        for &i in &self.list {
            self.member[i] = false;
        }
        self.list.clear();
    }
}

/// Cached next-event time of a node with an empty queue, or of a down
/// node (whose frozen events never fire).
const NEVER: SimTime = SimTime::MAX;

/// Where [`Cluster::launch`] places a job's nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Identity placement across the whole cluster: job node `j` on
    /// cluster node `j`. The job's width must equal the cluster's.
    All,
    /// Explicit subset: job node `j` on cluster node `nodes[j]`.
    Nodes(Vec<usize>),
}

impl Placement {
    /// Shorthand for [`Placement::Nodes`] from a slice.
    pub fn on(nodes: &[usize]) -> Self {
        Placement::Nodes(nodes.to_vec())
    }

    fn resolve(self, cluster_len: usize) -> Vec<usize> {
        match self {
            Placement::All => (0..cluster_len).collect(),
            Placement::Nodes(nodes) => nodes,
        }
    }
}

/// Constructs a [`Cluster`]. Everything about a run — the nodes, the
/// fabric, the host-side execution policy, the fault schedule — is
/// fixed here, at build time.
///
/// ```no_run
/// # use hpl_cluster::{Cluster, CosimConfig, FaultPlan, Interconnect, NetConfig};
/// # fn build_node(i: usize) -> hpl_kernel::Node { unimplemented!() }
/// let cluster = Cluster::builder()
///     .nodes_with(4, build_node)
///     .fabric(Interconnect::switched(4, NetConfig::default()))
///     .cosim(CosimConfig::parallel())
///     .faults(FaultPlan::none())
///     .build();
/// ```
pub struct ClusterBuilder {
    nodes: Vec<Node>,
    factory: Option<Box<dyn FnMut(usize) -> Node>>,
    net: Option<Interconnect>,
    cosim: CosimConfig,
    faults: FaultPlan,
}

impl ClusterBuilder {
    /// Provide pre-built nodes. Build them with whatever
    /// topology/seed/event-loop each should have — the cluster does not
    /// care. Restart fault events need [`Self::nodes_with`] instead
    /// (there is nothing to rebuild a crashed node from otherwise).
    pub fn nodes(mut self, nodes: Vec<Node>) -> Self {
        self.nodes = nodes;
        self.factory = None;
        self
    }

    /// Provide nodes via a factory (`factory(i)` builds node `i`). The
    /// factory is kept: a [`NodeFault::Restart`] event rebuilds the
    /// crashed node by calling it again.
    pub fn nodes_with(
        mut self,
        count: usize,
        mut factory: impl FnMut(usize) -> Node + 'static,
    ) -> Self {
        self.nodes = (0..count).map(&mut factory).collect();
        self.factory = Some(Box::new(factory));
        self
    }

    /// The interconnect. Defaults to a flat crossbar with
    /// [`NetConfig::default`] parameters over the node count.
    pub fn fabric(mut self, net: Interconnect) -> Self {
        self.net = Some(net);
        self
    }

    /// Host-side execution policy (serial vs pooled window stepping).
    /// Invisible in every observable output; defaults to serial.
    pub fn cosim(mut self, cfg: CosimConfig) -> Self {
        self.cosim = cfg;
        self
    }

    /// The run's fault schedule. Defaults to [`FaultPlan::none`], which
    /// is zero-cost: no fault state is consulted anywhere.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Build the cluster.
    ///
    /// Panics if no nodes were provided, the fabric size does not match
    /// the node count, a fault event targets a node outside the
    /// cluster, or the plan has restarts without a node factory.
    pub fn build(self) -> Cluster {
        let ClusterBuilder {
            nodes,
            factory,
            net,
            cosim,
            faults,
        } = self;
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        let mut net = net.unwrap_or_else(|| Interconnect::flat(nodes.len(), NetConfig::default()));
        assert_eq!(
            net.nodes(),
            nodes.len(),
            "interconnect fabric size must match the node count"
        );
        for e in &faults.events {
            assert!(
                e.node < nodes.len(),
                "fault event targets node {} outside the cluster",
                e.node
            );
        }
        assert!(
            !faults.has_restarts() || factory.is_some(),
            "restart fault events need ClusterBuilder::nodes_with (a node factory)"
        );
        if faults.loss.is_some() || !faults.degrade.is_empty() {
            net.install_faults(LinkFaults {
                seed: faults.seed,
                loss: faults.loss,
                degrade: faults.degrade.clone(),
            });
        }
        let n = nodes.len();
        let fault_events = faults.sorted_events();
        // Serial clusters never read the width, so only a pooled one
        // pays for asking the host.
        let threads = if cosim.parallel {
            cosim.effective_threads(usize::MAX)
        } else {
            1
        };
        Cluster {
            nodes,
            net,
            jobs: Vec::new(),
            live: vec![Vec::new(); n],
            calendar: MinTree::with_len(n, NEVER),
            events_seen: vec![0; n],
            events_total: 0,
            stale: NodeSet::full(n),
            unrouted: NodeSet::full(n),
            changed: NodeSet::full(n),
            id_ranges: vec![Vec::new(); n],
            window_hook: None,
            cfg: cosim,
            threads,
            pool: None,
            active: Vec::new(),
            outbox: Vec::new(),
            factory,
            fault_events,
            fault_cursor: 0,
            down: vec![false; n],
            down_count: 0,
            drained: vec![false; n],
            incarnation: vec![0; n],
            crashes: 0,
            fault_generation: 0,
        }
    }
}

/// A callback run at the end of every lockstep window.
type WindowHook = Box<dyn FnMut(&Cluster)>;

/// N co-simulated kernel nodes joined by an interconnect.
pub struct Cluster {
    nodes: Vec<Node>,
    net: Interconnect,
    /// Every job ever launched, in launch order (indexed by
    /// [`ClusterJobHandle::job_id`]).
    jobs: Vec<ActiveJob>,
    /// Live-job index: `live[n]` lists, in launch order, the jobs that
    /// may still occupy node `n`, each as `(job, j)` with `j` the
    /// job-relative index of `n` in its placement. Every job occupying
    /// `n` is listed; entries that stopped occupying it (tree exited,
    /// job failed) are pruned at the next launch on `n`, and the list is
    /// emptied when `n` crashes. Occupancy counts and message routing
    /// read it instead of walking every job ever launched.
    live: Vec<Vec<(usize, usize)>>,
    /// Window calendar: a min tree over the cached next-event time of
    /// every node ([`NEVER`] for an empty queue or a down node). Its
    /// root opens the next window and its leaves below the window end
    /// are the active set. Exact for every node not in `stale`.
    calendar: MinTree<SimTime>,
    /// Each node's event count as last read, and their sum. Exact for
    /// every node not in `stale`, so the cluster-wide count costs the
    /// stale nodes, not N.
    events_seen: Vec<u64>,
    events_total: u64,
    /// Nodes whose calendar leaf and event count must be re-read before
    /// the next window: stepped, posted a delivery, or touched from
    /// outside.
    stale: NodeSet,
    /// Nodes that may hold captured outbound messages: stepped, or
    /// touched from outside, since the last routing pass.
    unrouted: NodeSet,
    /// Nodes changed since the last [`Self::drain_changed`]: every node
    /// that entered `stale` since then, kept apart because the window
    /// loop clears `stale` before a caller between windows can read it.
    changed: NodeSet,
    /// Per node, every job ever launched on it, ascending by the start
    /// of its id range. Ranges on one node are pairwise disjoint (the
    /// launch check enforces it), so their ends ascend too, and a new
    /// range overlaps one of them iff it overlaps the last one starting
    /// at or before its end. Dead jobs stay listed, as the check
    /// demands.
    id_ranges: Vec<Vec<u32>>,
    /// Called with the cluster at the end of every window (see
    /// [`Self::on_window`]).
    window_hook: Option<WindowHook>,
    /// Host-side execution policy (serial vs pooled window stepping).
    cfg: CosimConfig,
    /// Pooled stepping threads before the clamp to the up-node count:
    /// the explicit `cfg.threads`, else the host's parallelism, read
    /// once at build.
    threads: usize,
    /// Worker pool, spawned lazily on the first window dense enough to
    /// fan out; `None` until then and in serial mode.
    pool: Option<WorkerPool>,
    /// Scratch: indices of nodes with an event inside the current
    /// window. Reused across windows so steady-state stepping does not
    /// allocate.
    active: Vec<usize>,
    /// Scratch: one window's captured outbound messages, swap-cycled
    /// with each node's capture buffer so neither side reallocates.
    outbox: Vec<NetMsg>,
    /// Node factory from [`ClusterBuilder::nodes_with`]; rebuilds
    /// crashed nodes on restart events.
    factory: Option<Box<dyn FnMut(usize) -> Node>>,
    /// The plan's node events, in application order.
    fault_events: Vec<crate::fault::NodeEvent>,
    /// First not-yet-applied entry of `fault_events`.
    fault_cursor: usize,
    /// `down[n]`: node `n` crashed and has not restarted. A down node
    /// is frozen — excluded from the next-event minimum and the active
    /// list, never stepped, deliveries to it dropped.
    down: Vec<bool>,
    /// Number of `true` entries in `down`.
    down_count: usize,
    /// `drained[n]`: node `n` accepts no new launches (but keeps
    /// running what it has).
    drained: Vec<bool>,
    /// Restart generation per node; bumped when a node is rebuilt.
    incarnation: Vec<u64>,
    /// Crash events applied so far.
    crashes: u64,
    /// Fault events applied so far (see [`Self::fault_generation`]).
    fault_generation: u64,
}

impl Cluster {
    /// Start building a cluster: nodes, fabric, execution policy and
    /// fault schedule are all fixed at [`ClusterBuilder::build`].
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            nodes: Vec::new(),
            factory: None,
            net: None,
            cosim: CosimConfig::serial(),
            faults: FaultPlan::none(),
        }
    }

    /// The host-side execution policy.
    pub fn config(&self) -> CosimConfig {
        self.cfg
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the cluster has no nodes (never: `new` asserts).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to node `i`.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Mutable access to node `i` (observer registration, warmup, …).
    /// Stepping a node directly while a job is in flight breaks
    /// lockstep; do it only before the first launch. The node is marked
    /// touched: its next-event time is re-read and its outbound queue
    /// drained at the next window.
    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        self.touch(i);
        &mut self.nodes[i]
    }

    /// Mark node `i` as changed from outside the window loop.
    fn touch(&mut self, i: usize) {
        self.mark_stale(i);
        self.unrouted.insert(i);
    }

    /// Queue node `i`'s calendar leaf and event count for a re-read,
    /// and report it through [`Self::drain_changed`].
    fn mark_stale(&mut self, i: usize) {
        self.stale.insert(i);
        self.changed.insert(i);
    }

    /// Move the nodes changed since the previous call (every node, on
    /// the first call) into `out`, replacing its contents, in the order
    /// they first changed. A node is listed once it was stepped, posted
    /// a delivery, or touched from outside ([`Self::node_mut`], a
    /// launch, a cancel, a share update, a fault). Between two calls
    /// that see the same [`Self::fault_generation`], a node not listed
    /// kept its clock, its task table and [`Self::active_jobs_on`]; a
    /// caller that caches per-node state refreshes the listed nodes and
    /// rescans everything when the generation moves (a fault can change
    /// a job's state on nodes it does not list, and availability).
    pub fn drain_changed(&mut self, out: &mut Vec<usize>) {
        out.clear();
        out.append(&mut self.changed.list);
        for &i in out.iter() {
            self.changed.member[i] = false;
        }
    }

    /// Fault events (drain, crash or restart) applied so far. Any
    /// change to [`Self::node_available`] or to a node's incarnation
    /// moves it.
    pub fn fault_generation(&self) -> u64 {
        self.fault_generation
    }

    /// All nodes, in cluster order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The interconnect (traffic counters, lookahead).
    pub fn net(&self) -> &Interconnect {
        &self.net
    }

    /// Total events processed across all nodes. Reads the queues of
    /// the stale nodes only — every other node's count is cached — so
    /// a run loop can check its event budget after every window without
    /// visiting every node. [`Self::check_indexes`] holds it equal to
    /// the sum over every node.
    pub fn events_processed(&self) -> u64 {
        let list = &self.stale.list;
        let seen: u64 = list.iter().map(|&i| self.events_seen[i]).sum();
        let now: u64 = list.iter().map(|&i| self.nodes[i].events_processed()).sum();
        self.events_total - seen + now
    }

    /// Earliest pending event time across the cluster, `None` when every
    /// queue is drained. Down nodes are frozen and contribute nothing —
    /// their pending events can never fire.
    ///
    /// This is the reference scan over every node's queue; the window
    /// loop reads the cached per-node array instead, and
    /// [`Self::check_indexes`] holds the two equal.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.down[*i])
            .filter_map(|(_, n)| n.next_event_time())
            .min()
    }

    /// True iff node `n` has crashed and not restarted.
    pub fn node_down(&self, n: usize) -> bool {
        self.down[n]
    }

    /// True iff node `n` is drained (no new launches).
    pub fn node_drained(&self, n: usize) -> bool {
        self.drained[n]
    }

    /// True iff node `n` can host new launches (neither down nor
    /// drained).
    pub fn node_available(&self, n: usize) -> bool {
        !self.down[n] && !self.drained[n]
    }

    /// Crash events applied so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// True iff this handle's job was failed by a node crash. Failed
    /// jobs release occupancy, never complete, and must be relaunched
    /// (fresh id range) by whoever owns the queue.
    pub fn job_failed(&self, handle: &ClusterJobHandle) -> bool {
        self.jobs[handle.job_id].failed
    }

    /// Job-relative node indices of `handle` whose cluster node still
    /// holds the job's tasks: up, and on the same incarnation that
    /// spawned them. For a failed job this is where checkpoint progress
    /// can still be read.
    pub fn job_survivors(&self, handle: &ClusterJobHandle) -> Vec<usize> {
        let aj = &self.jobs[handle.job_id];
        (0..aj.placement.len())
            .filter(|&j| {
                let n = aj.placement[j];
                !self.down[n] && aj.incarnations[j] == self.incarnation[n]
            })
            .collect()
    }

    /// Forcibly terminate a running job: reap its launcher tree on every
    /// node that still holds one (walltime-limit enforcement, user
    /// cancellation). Call between lockstep windows only, like fault
    /// events, so the decision is identical under every host execution
    /// policy. The job's occupancy releases immediately and
    /// [`Self::job_done`] turns true once every tree is dead, so an
    /// engine harvesting completions observes the kill as an early end
    /// (each node's `perf` task records its node-local kill time in
    /// `exited_at`). No-op on a job already failed by a crash — crash
    /// recovery owns those. Returns the number of trees reaped.
    pub fn cancel_job(&mut self, handle: &ClusterJobHandle) -> usize {
        let aj = &self.jobs[handle.job_id];
        if aj.failed {
            return 0;
        }
        let victims: Vec<(usize, hpl_kernel::Pid)> = aj
            .placement
            .iter()
            .enumerate()
            .filter(|&(j, &n)| !self.down[n] && aj.incarnations[j] == self.incarnation[n])
            .map(|(j, &n)| (n, aj.perf_pids[j]))
            .collect();
        let mut reaped = 0;
        for (n, pid) in victims {
            if self.nodes[n].tasks.get(pid).state != TaskState::Dead {
                self.nodes[n].kill_tree(pid);
                self.touch(n);
                reaped += 1;
            }
        }
        reaped
    }

    /// Combined scheduler-state hash over all nodes, for determinism
    /// tests (same seed + same event loop family ⇒ same fingerprint).
    pub fn state_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for node in &self.nodes {
            h ^= node.state_fingerprint();
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Launch `job` on `placement` (job node `j` runs on cluster node
    /// `placement[j]`; [`Placement::All`] is the identity placement over
    /// the whole cluster): register its cross-node channels on each
    /// source node, then spawn one `perf → (chrt →) mpiexec → ranks`
    /// tree per job node, *without* stepping any node (lockstep starts
    /// with [`Self::step_window`]). Jobs may overlap in time and share
    /// nodes, but jobs that share a node must reserve disjoint id ranges
    /// ([`JobSpec::with_id_base`]) so message routing stays unambiguous
    /// — this is asserted here, as is every target node being up and
    /// undrained.
    pub fn launch(
        &mut self,
        job: &JobSpec,
        mode: SchedMode,
        placement: Placement,
    ) -> ClusterJobHandle {
        self.launch_with(job, mode, placement, &mut |_, p| p)
    }

    /// [`Self::launch`] with a [`RankWrap`] hook interposed on every
    /// rank program as it is forked — `wrap(rank, program)` returns
    /// what the rank actually runs. The identity closure reproduces
    /// [`Self::launch`] byte for byte; `hpl-coord` uses the hook to
    /// install its cooperative lease shim without this crate knowing
    /// coordination exists.
    pub fn launch_with(
        &mut self,
        job: &JobSpec,
        mode: SchedMode,
        placement: Placement,
        wrap: RankWrap<'_>,
    ) -> ClusterJobHandle {
        let placement = placement.resolve(self.nodes.len());
        assert_eq!(
            job.nodes as usize,
            placement.len(),
            "job wants {} nodes but placement has {}",
            job.nodes,
            placement.len()
        );
        for (j, &n) in placement.iter().enumerate() {
            assert!(
                n < self.nodes.len(),
                "placement[{j}] = {n} outside the cluster"
            );
            assert!(
                !placement[..j].contains(&n),
                "placement maps two job nodes onto cluster node {n}"
            );
            assert!(
                !self.down[n] && !self.drained[n],
                "placement[{j}] = {n} is {}",
                if self.down[n] { "down" } else { "drained" }
            );
        }
        let b = job.id_range();
        let ids = (*b.start(), *b.end());
        // The first-launched job sharing a node whose range overlaps:
        // on each node, walk back from the last range starting at or
        // before `b`'s end while ranges still reach `b`'s start.
        let clash = placement
            .iter()
            .flat_map(|&n| {
                let list = &self.id_ranges[n];
                let upto = list.partition_point(|&ji| self.jobs[ji as usize].ids.0 <= ids.1);
                list[..upto]
                    .iter()
                    .rev()
                    .take_while(|&&ji| self.jobs[ji as usize].ids.1 >= ids.0)
            })
            .min();
        if let Some(&prev) = clash {
            panic!(
                "jobs sharing a node must have disjoint id ranges \
                 ({:?} vs {:?}); use JobSpec::with_id_base",
                self.jobs[prev as usize].job.id_range(),
                b
            );
        }
        let job_id = self.jobs.len();
        let mut perf_pids = Vec::with_capacity(placement.len());
        let mut launched_at = Vec::with_capacity(placement.len());
        for (j, &n) in placement.iter().enumerate() {
            self.prune_live(n);
            self.live[n].push((job_id, j));
            self.touch(n);
            let node = &mut self.nodes[n];
            if let Some(block) = job.net_block(j as u32) {
                node.register_net_block(block);
            }
            launched_at.push(node.now());
            let root = spawn_job_tree_with(node, job, mode, j as u32, wrap);
            if node.cfg.gang_epoch.is_some() {
                // Gang co-scheduling: every rank tree of this job shares
                // one gang id — the job's id base, which the
                // disjoint-id-range assertion above makes unique among
                // co-resident jobs — so each node's gang controller
                // rotates the same job in the same absolute-time epoch
                // window without any cross-node messages.
                node.gang_enroll(root, job.id_base);
            }
            perf_pids.push(root);
        }
        let incarnations = placement.iter().map(|&n| self.incarnation[n]).collect();
        for &n in &placement {
            let list = &mut self.id_ranges[n];
            let at = list.partition_point(|&ji| self.jobs[ji as usize].ids.0 < ids.0);
            list.insert(
                at,
                u32::try_from(job_id).expect("job table outgrew u32 indices"),
            );
        }
        self.jobs.push(ActiveJob {
            job: job.clone(),
            ids,
            placement: placement.clone(),
            perf_pids: perf_pids.clone(),
            incarnations,
            failed: false,
            exits: vec![None; placement.len()],
        });
        ClusterJobHandle {
            job_id,
            placement,
            perf_pids,
            launched_at,
        }
    }

    /// Set gang `gang`'s milli-CPU share on cluster node `node` for
    /// weighted kernel slicing ([`hpl_kernel::Node::gang_set_share`]).
    /// Called between windows, like every other harness mutation; a
    /// coordination runtime calls it on every node a job occupies so
    /// the lockstep nodes keep deriving identical slice schedules from
    /// the shared virtual clock. The node must be up; a drained node
    /// still runs the jobs it has, so their shares still apply there.
    pub fn set_gang_share(&mut self, node: usize, gang: u64, share_milli: u32) {
        assert!(!self.down[node], "set_gang_share on down node {node}");
        self.touch(node);
        self.nodes[node].gang_set_share(gang, share_milli);
    }

    /// Advance one lockstep window. Returns `false` when every node's
    /// event queue is drained (nothing can ever happen again), `true`
    /// after processing a window.
    ///
    /// The window `[t_next, t_next + lookahead)` is a half-open
    /// [`Window`]; any message sent inside it is delivered at or after
    /// the window end (see module docs), so per-node stepping is
    /// independent and deliveries posted after all nodes finish cannot
    /// land in a node's past. Only the *active* nodes — those with an
    /// event inside the window — are stepped at all (for an inactive
    /// node `run_until_time` is a pure no-op, so skipping it is exact);
    /// under [`CosimConfig::parallel`] a dense-enough active set is
    /// fanned out over the worker pool, with every cross-node effect
    /// still merged serially in fixed `(node, capture)` order by
    /// `route_outbound`, which is what keeps the result byte-identical
    /// to the serial path.
    ///
    /// `t_next` and the active set come from the window calendar, a min
    /// tree over the cached per-node next-event times: `t_next` is its
    /// root and the active set a descent into the subtrees whose minimum
    /// lies inside the window, so a window costs O(active · log N), not
    /// O(N). Only the leaves of nodes that changed since the last window
    /// (stepped, delivered to, or touched from outside) are re-read from
    /// their queues first.
    ///
    /// Fault events from the plan are applied here, at window
    /// boundaries: every event due at or before the upcoming window's
    /// start lands before any node is stepped (so a crash has
    /// window-granular timing — the first boundary at or after its
    /// scheduled time — exactly like a health-check poll would). When
    /// all queues drain but fault events remain (e.g. a restart of the
    /// only node with work), the events are applied and the loop
    /// continues, so a restart can wake an otherwise-idle cluster.
    pub fn step_window(&mut self) -> bool {
        let deadline = loop {
            self.refresh_next_events();
            let window = self.scan_window();
            let due = match (self.fault_events.get(self.fault_cursor), window) {
                (Some(e), Some(w)) => e.at <= w.start,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if due {
                self.apply_next_fault();
                continue;
            }
            match window {
                Some(w) => break w.deadline(),
                None => return false,
            }
        };
        let workers = if self.cfg.parallel && self.active.len() >= self.cfg.parallel_min_active {
            let alive = self.nodes.len() - self.down_count;
            self.threads.clamp(1, alive.max(1)) - 1
        } else {
            0
        };
        if workers > 0 {
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(workers));
            pool.step_round(&mut self.nodes, &self.active, deadline);
        } else {
            for &i in &self.active {
                self.nodes[i].run_until_time(deadline);
            }
        }
        for &i in &self.active {
            self.stale.insert(i);
            self.changed.insert(i);
            self.unrouted.insert(i);
        }
        self.route_outbound();
        if let Some(mut hook) = self.window_hook.take() {
            hook(self);
            self.window_hook = Some(hook);
        }
        true
    }

    /// Re-read the calendar leaf and event count of every stale node.
    fn refresh_next_events(&mut self) {
        for &i in &self.stale.list {
            let node = &self.nodes[i];
            let t = if self.down[i] {
                NEVER
            } else {
                node.next_event_time().unwrap_or(NEVER)
            };
            self.calendar.set(i, t);
            let events = node.events_processed();
            self.events_total = self.events_total - self.events_seen[i] + events;
            self.events_seen[i] = events;
        }
        self.stale.clear();
    }

    /// The next window, opened at the calendar's root, leaving its
    /// active nodes in `self.active` in index order. `None` when every
    /// queue is drained.
    fn scan_window(&mut self) -> Option<Window> {
        let (_, start) = self.calendar.min()?;
        let w = Window::conservative(start, self.net.lookahead());
        self.active.clear();
        self.calendar.collect_below(w.end, &mut self.active);
        debug_assert_eq!(Some(w.start), self.next_event_time());
        Some(w)
    }

    /// Apply the next scheduled node fault. Runs serially between
    /// windows, so the decision is identical under every host execution
    /// policy.
    fn apply_next_fault(&mut self) {
        let ev = self.fault_events[self.fault_cursor];
        self.fault_cursor += 1;
        self.fault_generation += 1;
        match ev.kind {
            NodeFault::Drain => {
                self.drained[ev.node] = true;
            }
            NodeFault::Crash => {
                if self.down[ev.node] {
                    return;
                }
                // Fail every job with a live launcher tree on the node
                // (the node's task table is still valid here — it is
                // only replaced on restart). Jobs whose tree already
                // exited on this node are unaffected; their exit stamps
                // are copied out, because the table they live in is
                // gone once the node restarts.
                let node = &self.nodes[ev.node];
                let mut failed = Vec::new();
                for (ji, aj) in self.jobs.iter_mut().enumerate() {
                    if aj.failed {
                        continue;
                    }
                    if let Some(j) = aj.placement.iter().position(|&p| p == ev.node) {
                        if aj.incarnations[j] != self.incarnation[ev.node] {
                            continue;
                        }
                        match tree_exit(node, aj.perf_pids[j]) {
                            Some(exit) => aj.exits[j] = Some(exit),
                            None => {
                                aj.failed = true;
                                failed.push(ji);
                            }
                        }
                    }
                }
                self.live[ev.node].clear();
                self.down[ev.node] = true;
                self.down_count += 1;
                self.mark_stale(ev.node);
                self.crashes += 1;
                // Runtime-level abort on the survivors: reap each failed
                // job's task tree on its other nodes, so orphaned ranks
                // don't spin against (and skew placement for) whatever
                // runs there next. Checkpoint barrier generations stay
                // readable — killing a task doesn't unwind the commits
                // it already made. (Jobs failed by an earlier crash had
                // their trees reaped then.)
                for ji in failed {
                    let aj = &self.jobs[ji];
                    let victims: Vec<(usize, hpl_kernel::Pid)> = aj
                        .placement
                        .iter()
                        .enumerate()
                        .filter(|&(j, &n)| {
                            n != ev.node
                                && !self.down[n]
                                && aj.incarnations[j] == self.incarnation[n]
                        })
                        .map(|(j, &n)| (n, aj.perf_pids[j]))
                        .collect();
                    for (n, pid) in victims {
                        if self.nodes[n].tasks.get(pid).state != TaskState::Dead {
                            self.nodes[n].kill_tree(pid);
                            self.touch(n);
                        }
                    }
                }
            }
            NodeFault::Restart => {
                if !self.down[ev.node] {
                    // Restart of an up node just lifts a drain.
                    self.drained[ev.node] = false;
                    return;
                }
                let factory = self
                    .factory
                    .as_mut()
                    .expect("restart events are rejected at build without a factory");
                let mut fresh = factory(ev.node);
                // Replay the fresh kernel's boot up to the cluster's
                // present, so it rejoins lockstep without dragging the
                // window back into everyone else's past. Deliveries
                // pending in the dead node's queue vanish with it.
                let target = self
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !self.down[*i])
                    .map(|(_, n)| n.now())
                    .max()
                    .unwrap_or(SimTime::ZERO)
                    .max(ev.at);
                fresh.run_until_time(target);
                self.nodes[ev.node] = fresh;
                self.down[ev.node] = false;
                self.down_count -= 1;
                self.drained[ev.node] = false;
                self.incarnation[ev.node] += 1;
                self.touch(ev.node);
            }
        }
    }

    /// Drain captured cross-node messages from every node that may hold
    /// some, cost them on the interconnect, and schedule the deliveries.
    /// Deterministic: nodes are drained in index order and each node's
    /// capture order is its own dispatch order — this serial merge is
    /// what erases any host-thread interleaving from the parallel
    /// stepping path. Each message is routed by the unique job that (a)
    /// is live on the source and (b) owns the channel id — unique
    /// because jobs sharing a node have disjoint id ranges. (A tree
    /// that captured a message was alive when it did, so its job is
    /// still listed: entries are pruned only between windows, and only
    /// once the tree is dead or its job failed, with every tree reaped.)
    fn route_outbound(&mut self) {
        let mut buf = std::mem::take(&mut self.outbox);
        let mut srcs = std::mem::take(&mut self.unrouted.list);
        srcs.sort_unstable();
        for &src in &srcs {
            self.unrouted.member[src] = false;
            if self.down[src] || !self.nodes[src].has_outbound() {
                continue;
            }
            self.nodes[src].drain_outbound_into(&mut buf);
            for &m in buf.iter() {
                let aj = self.live[src]
                    .iter()
                    .map(|&(ji, _)| &self.jobs[ji])
                    .find(|aj| aj.job.chan_dst_node(m.chan).is_some())
                    .expect("outbound message on a channel no job on this node owns");
                // A failed job's runtime is torn down: in-flight traffic
                // from its surviving ranks goes nowhere. (The ranks
                // themselves quiesce — they spin out their limit, then
                // block forever on peers that no longer exist.)
                if aj.failed {
                    continue;
                }
                let dst_job = aj.job.chan_dst_node(m.chan).expect("checked above") as usize;
                let dst = aj.placement[dst_job];
                debug_assert_ne!(dst, src, "cross-node send routed back to its source");
                if self.down[dst] {
                    continue;
                }
                let (deliver_at, queued) = self.net.transfer(m.at, src, dst, m.bytes);
                self.nodes[dst].post_net_delivery(deliver_at, m.chan, m.tokens, m.at, queued);
                self.mark_stale(dst);
            }
        }
        srcs.clear();
        self.unrouted.list = srcs;
        self.outbox = buf;
    }

    /// Run lockstep windows until **this handle's** launcher trees have
    /// exited (other in-flight jobs keep running and are untouched),
    /// then return the **application execution time**: the longest
    /// per-node `mpiexec` lifetime, which is what the paper's
    /// per-benchmark timers report. Fails with
    /// [`RunOutcome::Deadlock`] if every event queue drains first, or
    /// [`RunOutcome::BudgetExhausted`] after `max_events` additional
    /// dispatched events cluster-wide (hang guard). In all cases the
    /// cluster is left exactly where the run stopped.
    pub fn try_run_to_completion(
        &mut self,
        handle: &ClusterJobHandle,
        max_events: u64,
    ) -> Result<SimDuration, RunOutcome> {
        let start_events = self.events_processed();
        while !self.job_done(handle) {
            if self.job_failed(handle) {
                // A crash killed part of the job: it can never complete.
                return Err(RunOutcome::Deadlock);
            }
            if !self.step_window() {
                return Err(RunOutcome::Deadlock);
            }
            if self.events_processed() - start_events > max_events {
                return Err(RunOutcome::BudgetExhausted);
            }
        }
        Ok(self
            .job_exec_time(handle)
            .expect("job_done implies mpiexec exited"))
    }

    /// Panicking convenience wrapper around
    /// [`Self::try_run_to_completion`] for tests and examples that treat
    /// an unfinished run as a bug.
    pub fn run_to_completion(&mut self, handle: &ClusterJobHandle, max_events: u64) -> SimDuration {
        self.try_run_to_completion(handle, max_events)
            .unwrap_or_else(|outcome| panic!("cluster job did not complete: {}", outcome.label()))
    }

    /// True iff the whole launcher tree has exited on every node **of
    /// this job** — other jobs do not affect the answer. Always `false`
    /// for a failed job. A tree that exited before its node crashed
    /// stays exited (its stamps are kept across the restart), so the
    /// answer agrees with [`Self::job_end_time`].
    pub fn job_done(&self, handle: &ClusterJobHandle) -> bool {
        self.job_end_time(handle).is_some()
    }

    /// Time the job released its last node: the latest `perf` exit over
    /// its placement (each stamped on its own node's clock). `None`
    /// while any tree is alive, and forever for a failed job.
    pub fn job_end_time(&self, handle: &ClusterJobHandle) -> Option<SimTime> {
        let aj = &self.jobs[handle.job_id];
        if aj.failed {
            return None;
        }
        (0..aj.placement.len())
            .map(|j| self.job_root_exit(aj, j))
            .try_fold(SimTime::ZERO, |end, t| t.map(|t| end.max(t)))
    }

    /// Root exit stamp of `aj`'s tree on job-relative node `j`: the copy
    /// taken at a crash, else read from the node — which must still be
    /// the incarnation that spawned the tree.
    fn job_root_exit(&self, aj: &ActiveJob, j: usize) -> Option<SimTime> {
        if let Some(exit) = aj.exits[j] {
            return Some(exit.perf);
        }
        let n = aj.placement[j];
        if self.down[n] || aj.incarnations[j] != self.incarnation[n] {
            return None;
        }
        root_exit(&self.nodes[n], aj.perf_pids[j])
    }

    /// Application execution time of a completed job: the longest
    /// per-node `mpiexec` lifetime since launch. `None` until every
    /// node's mpiexec has exited, and forever for a failed job.
    pub fn job_exec_time(&self, handle: &ClusterJobHandle) -> Option<SimDuration> {
        let aj = &self.jobs[handle.job_id];
        if aj.failed {
            return None;
        }
        let mut exec = SimDuration::ZERO;
        for (j, &n) in aj.placement.iter().enumerate() {
            let exited = match aj.exits[j] {
                Some(exit) => exit.mpiexec?,
                None => {
                    if self.down[n] || aj.incarnations[j] != self.incarnation[n] {
                        return None;
                    }
                    let node = &self.nodes[n];
                    let mpiexec = find_mpiexec(node, aj.perf_pids[j])?;
                    node.tasks.get(mpiexec).exited_at?
                }
            };
            exec = exec.max(exited.since(handle.launched_at[j]));
        }
        Some(exec)
    }

    /// True iff job `aj` occupies cluster node `n`: placed on `n`, not
    /// failed, and its launcher tree there is alive on the incarnation
    /// that spawned it.
    fn occupies(&self, aj: &ActiveJob, n: usize) -> bool {
        aj.placement
            .iter()
            .position(|&p| p == n)
            .is_some_and(|j| self.occupies_at(aj, j))
    }

    /// [`Self::occupies`] for the node `aj` places its job-relative node
    /// `j` on, without searching the placement.
    fn occupies_at(&self, aj: &ActiveJob, j: usize) -> bool {
        let n = aj.placement[j];
        !aj.failed
            && aj.incarnations[j] == self.incarnation[n]
            && self.nodes[n].tasks.get(aj.perf_pids[j]).state != TaskState::Dead
    }

    /// Drop the jobs that no longer occupy node `n` from its live list.
    fn prune_live(&mut self, n: usize) {
        let mut live = std::mem::take(&mut self.live[n]);
        live.retain(|&(ji, j)| self.occupies_at(&self.jobs[ji], j));
        self.live[n] = live;
    }

    /// Number of jobs currently occupying cluster node `n`: launched,
    /// placed on `n`, not failed, and whose launcher tree on `n` has not
    /// yet exited. This is the quantity a batch policy's occupancy limit
    /// bounds; a crash releases its jobs' occupancy here immediately.
    /// Reads the live-job index, so it costs the jobs still listed on
    /// `n`, not every job ever launched.
    pub fn active_jobs_on(&self, n: usize) -> usize {
        let count = self.live[n]
            .iter()
            .filter(|&&(ji, j)| self.occupies_at(&self.jobs[ji], j))
            .count();
        debug_assert_eq!(count, self.active_jobs_on_scan(n));
        count
    }

    /// Reference for [`Self::active_jobs_on`]: the same count by a scan
    /// over every job ever launched.
    pub fn active_jobs_on_scan(&self, n: usize) -> usize {
        self.jobs.iter().filter(|aj| self.occupies(aj, n)).count()
    }

    /// Check the window loop's incremental state against the reference
    /// scans: the live-job index against [`Self::active_jobs_on_scan`],
    /// every cached next-event time and event count not due for a
    /// refresh against the node, [`Self::events_processed`] against the
    /// sum over every node, the window calendar's tree (every inner node
    /// the min of its children, so the root is the least leaf) and the
    /// active set it yields against a scan of its leaves, the per-node
    /// id-range index and the down-node count against scans, and every
    /// up node holding captured messages against the set the next
    /// routing pass drains. Returns the first mismatch. Read-only, so checking
    /// never changes a run; the torture harness calls it after every
    /// window.
    pub fn check_indexes(&self) -> Result<(), String> {
        self.calendar
            .check()
            .map_err(|e| format!("window calendar: {e}"))?;
        if let Some((_, start)) = self.calendar.min() {
            let end = Window::conservative(start, self.net.lookahead()).end;
            let mut active = Vec::new();
            self.calendar.collect_below(end, &mut active);
            let scan: Vec<usize> = (0..self.nodes.len())
                .filter(|&n| self.calendar.get(n) < end)
                .collect();
            if active != scan {
                return Err(format!(
                    "window calendar: active set {active:?}, scan of its leaves {scan:?}"
                ));
            }
        }
        let down = self.down.iter().filter(|&&d| d).count();
        if down != self.down_count {
            return Err(format!(
                "{} down nodes counted, {down} marked down",
                self.down_count
            ));
        }
        for n in 0..self.nodes.len() {
            let index: Vec<(u64, u64, usize)> = self.id_ranges[n]
                .iter()
                .map(|&ji| (self.jobs[ji as usize].ids, ji as usize))
                .map(|((start, end), ji)| (start, end, ji))
                .collect();
            let mut scan: Vec<(u64, u64, usize)> = (self.jobs.iter().enumerate())
                .filter(|(_, aj)| aj.placement.contains(&n))
                .map(|(ji, aj)| (*aj.job.id_range().start(), *aj.job.id_range().end(), ji))
                .collect();
            scan.sort_unstable();
            if index != scan {
                return Err(format!(
                    "node {n}: id-range index {index:?}, scan of launched jobs {scan:?}"
                ));
            }
            let (index, scan) = (self.active_jobs_on(n), self.active_jobs_on_scan(n));
            if index != scan {
                return Err(format!(
                    "node {n}: live-job index counts {index} jobs, scan counts {scan}"
                ));
            }
            if !self.stale.contains(n) {
                let (seen, events) = (self.events_seen[n], self.nodes[n].events_processed());
                if seen != events {
                    return Err(format!(
                        "node {n}: cached event count {seen}, node says {events}"
                    ));
                }
                let cached = Some(self.calendar.get(n)).filter(|&t| t != NEVER);
                let queue = if self.down[n] {
                    None
                } else {
                    self.nodes[n].next_event_time()
                };
                if cached != queue {
                    return Err(format!(
                        "node {n}: cached next event {cached:?}, queue says {queue:?}"
                    ));
                }
            }
            if !self.down[n] && self.nodes[n].has_outbound() && !self.unrouted.contains(n) {
                return Err(format!(
                    "node {n} holds outbound messages the next routing pass skips"
                ));
            }
        }
        let (cached, sum) = (
            self.events_processed(),
            self.nodes.iter().map(Node::events_processed).sum::<u64>(),
        );
        if cached != sum {
            return Err(format!(
                "cluster event count {cached}, sum over nodes {sum}"
            ));
        }
        Ok(())
    }

    /// Run `hook` with the cluster at the end of every window, after
    /// routing (replacing any earlier hook). For read-only probes such
    /// as [`Self::check_indexes`]: the hook sees the cluster but cannot
    /// change it, so a hooked run is identical to an unhooked one.
    pub fn on_window(&mut self, hook: impl FnMut(&Cluster) + 'static) {
        self.window_hook = Some(Box::new(hook));
    }

    /// Total jobs ever launched on the cluster.
    pub fn jobs_launched(&self) -> usize {
        self.jobs.len()
    }

    /// Merge each node's [`ChromeTraceSink`] into a single Chrome-trace
    /// document, one trace *process* per node (process id = node
    /// index plus one) so `chrome://tracing` renders the cluster as
    /// stacked per-node track groups. `sinks[i]` must be the observer
    /// id of a `ChromeTraceSink` registered on node `i`; returns
    /// `None` if any id does not resolve.
    pub fn export_chrome_trace(&self, sinks: &[ObserverId]) -> Option<String> {
        assert_eq!(sinks.len(), self.nodes.len(), "one sink id per node");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut dropped = 0u64;
        for (i, (node, &id)) in self.nodes.iter().zip(sinks).enumerate() {
            let sink: &ChromeTraceSink = node.observer(id)?;
            dropped += sink.dropped();
            sink.write_events(&mut out, &mut first, i as u32 + 1, node.now(), |pid| {
                node.tasks.get(pid).name.clone()
            });
        }
        let _ = write!(out, "\n],\"otherData\":{{\"dropped\":{dropped}}}}}");
        Some(out)
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("net", &self.net)
            .field("jobs_launched", &self.jobs.len())
            .finish()
    }
}
