//! The job lifecycle engine: submit → queued → allocated → running →
//! completed (or failed → requeued), advanced inside the cosim event
//! loop.
//!
//! [`BatchRun`] owns the whole run: it replays a [`BatchTrace`] against
//! a [`Cluster`], consulting an [`AllocPolicy`] at every lockstep window
//! boundary. Arrivals, allocation decisions, completions and fault
//! handling are all functions of virtual time and seeded state, so a
//! batch run is exactly as deterministic as the underlying
//! co-simulation — the same `(cluster seed, fault plan, trace, policy)`
//! tuple produces the same [`BatchReport`] bit for bit, on both
//! event-loop flavours.
//!
//! Decision points are quantised to lockstep windows (a few µs, the
//! interconnect lookahead), the cluster-level analogue of a real batch
//! scheduler's polling interval.
//!
//! ## Failure semantics
//!
//! When a node crash (see `hpl_cluster::FaultPlan`) kills a running
//! job, the engine requeues it at the tail of the queue — the job loses
//! its position, the standard cluster-manager default — keeping its
//! original submit time so wait and slowdown measure the full sojourn.
//! With [`BatchConfig::checkpoint`] set, jobs write periodic
//! checkpoints and a requeued job restarts from the last checkpoint
//! every surviving node committed (plus a restore penalty) instead of
//! from scratch.

use crate::policy::{AllocPolicy, ClusterView, QueuedJob, RunningJob};
use crate::trace::{BatchJob, BatchTrace};
use hpl_cluster::{Cluster, ClusterJobHandle, JobCoordinator, Placement};
use hpl_kernel::{RunOutcome, SchedEvent};
use hpl_mpi::{JobSpec, MpiOp, SchedMode};
use hpl_sim::{SimDuration, SimTime};

/// Periodic checkpointing for batch jobs (see [`BatchConfig`]).
///
/// Every `every_iters` iterations each rank quiesces, writes its state
/// (`cost` of compute per rank) and commits at a per-node checkpoint
/// barrier. A job requeued after a crash restarts from the last
/// checkpoint committed by **every surviving node** (the consistent
/// cut), paying `restore` once, instead of recomputing from iteration
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint interval in job iterations (≥ 1).
    pub every_iters: u32,
    /// Per-rank cost of writing one checkpoint.
    pub cost: SimDuration,
    /// One-time per-rank cost of restoring from a checkpoint on
    /// restart.
    pub restore: SimDuration,
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// OS-level scheduling mode every job launches under (the CFS-vs-HPL
    /// axis of the two-level study).
    pub mode: SchedMode,
    /// Cluster-wide dispatched-event budget (hang guard).
    pub max_events: u64,
    /// Bounded-slowdown runtime floor τ: slowdown =
    /// max((wait + run) / max(run, τ), 1). The standard guard against
    /// tiny jobs dominating the mean; τ = 1 ms suits ms-scale jobs.
    pub slowdown_tau: SimDuration,
    /// Periodic checkpoint/restart for every job; `None` (the default)
    /// means failed jobs recompute from scratch.
    pub checkpoint: Option<CheckpointSpec>,
    /// Walltime enforcement: kill a job once it has occupied its nodes
    /// for `factor ×` its runtime estimate (`1.0` = kill exactly at
    /// estimate expiry, the production default on most clusters).
    /// Killed jobs are not requeued — they end at the kill, flagged
    /// [`JobOutcome::killed`] and counted in
    /// [`BatchReport::jobs_killed`]. `None` (the default) never kills,
    /// which preserves every pre-existing run bit for bit.
    pub walltime_factor: Option<f64>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            mode: SchedMode::Hpc,
            max_events: 600_000_000,
            slowdown_tau: SimDuration::from_millis(1),
            checkpoint: None,
            walltime_factor: None,
        }
    }
}

/// Per-job result row.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Trace id.
    pub id: u32,
    /// Nodes it ran on.
    pub nodes: u32,
    /// Submission time (batch epoch + trace offset).
    pub submitted: SimTime,
    /// Launch time.
    pub started: SimTime,
    /// Time the last launcher tree exited (nodes released).
    pub ended: SimTime,
    /// Queue wait (`started - submitted`).
    pub wait: SimDuration,
    /// Node-occupancy time (`ended - started`).
    pub run: SimDuration,
    /// Bounded slowdown (see [`BatchConfig::slowdown_tau`]).
    pub bounded_slowdown: f64,
    /// Times this job was requeued after a node crash before it
    /// finally completed.
    pub requeues: u32,
    /// Submitting user (trace field; fair-share key).
    pub user: u32,
    /// True iff the job was killed at its walltime limit
    /// ([`BatchConfig::walltime_factor`]) instead of completing.
    pub killed: bool,
}

/// Everything a batch run produced. `PartialEq` so determinism tests
/// can demand bit-identical reports across repeated runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Policy name.
    pub policy: &'static str,
    /// Per-job rows, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// First submit → last completion.
    pub makespan: SimDuration,
    /// Busy-node time over capacity: the union of each node's job-
    /// occupancy intervals, summed over nodes, divided by
    /// (cluster nodes × makespan). A node hosting two co-resident jobs
    /// (Oversubscribed/DFRS) counts its wall-clock time once, so the
    /// figure never exceeds 1.0 by double-counting node-seconds.
    pub utilization: f64,
    /// Mean queue wait over all jobs.
    pub mean_wait: SimDuration,
    /// Mean bounded slowdown over all jobs.
    pub mean_bounded_slowdown: f64,
    /// Deepest the queue ever got.
    pub max_queue_depth: u32,
    /// Highest concurrent-job count observed on any node.
    pub max_node_occupancy: u32,
    /// Decision points at which some node exceeded the policy's
    /// occupancy limit (must be 0; the torture oracle checks it).
    pub occupancy_violations: u64,
    /// Total crash-triggered requeues across all jobs.
    pub requeues: u64,
    /// Jobs that never completed (must be 0 on an `Ok` report: every
    /// submitted job either finishes or is requeued until it does; the
    /// torture oracle checks it).
    pub jobs_lost: u64,
    /// Jobs killed at their walltime limit (0 unless
    /// [`BatchConfig::walltime_factor`] is set).
    pub jobs_killed: u64,
    /// Per-user wait/slowdown breakdown, ascending by user id. Empty
    /// only if the trace was empty.
    pub user_stats: Vec<UserStats>,
    /// Cluster scheduler-state fingerprint at completion, for
    /// cross-event-loop differential checks.
    pub fingerprint: u64,
}

/// Per-user aggregate over a report's outcomes — the fairness lens:
/// fair-share should narrow the spread of `mean_bounded_slowdown`
/// across users relative to FCFS on the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct UserStats {
    /// User id (trace field).
    pub user: u32,
    /// Jobs this user completed (killed ones included).
    pub jobs: u32,
    /// Of those, jobs killed at their walltime limit.
    pub killed: u32,
    /// Mean queue wait over the user's jobs.
    pub mean_wait: SimDuration,
    /// Mean bounded slowdown over the user's jobs.
    pub mean_bounded_slowdown: f64,
}

impl BatchReport {
    /// Max per-job bounded slowdown.
    pub fn max_bounded_slowdown(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.bounded_slowdown)
            .fold(1.0, f64::max)
    }
}

/// Reserved ids below the first job's channel range (keeps clear of the
/// default `id_base = 0` used by standalone launches during warmup).
const ID_BASE_START: u64 = 10_000;
/// Safety gap between consecutive jobs' id ranges.
const ID_GAP: u64 = 16;

/// A queued job plus its original submit time and crash-recovery state:
/// how many leading iterations the next launch may skip (covered by
/// committed checkpoints) and how often it has been requeued.
struct Queued {
    job: BatchJob,
    submitted: SimTime,
    skip_iters: u32,
    requeues: u32,
}

struct Running {
    job: BatchJob,
    spec: JobSpec,
    handle: ClusterJobHandle,
    submitted: SimTime,
    started: SimTime,
    skip_iters: u32,
    requeues: u32,
    killed: bool,
}

/// Build the MPI program for one launch attempt. With `ckpt` set, a
/// checkpoint op follows every `every_iters`-th iteration except the
/// last (finishing *is* the commit); `skip_iters` leading iterations
/// are replaced by a single restore compute when recovering. With
/// `ckpt = None` and `skip_iters = 0` this emits exactly the
/// pre-fault-era op list, so existing runs are untouched bit for bit.
fn job_spec(j: &BatchJob, id_base: u64, ckpt: Option<&CheckpointSpec>, skip_iters: u32) -> JobSpec {
    let mut ops = Vec::new();
    if skip_iters > 0 {
        let c = ckpt.expect("skipping iterations requires a checkpoint spec");
        ops.push(MpiOp::Compute { mean: c.restore });
    }
    for it in skip_iters..j.iters {
        ops.push(MpiOp::Compute {
            mean: SimDuration::from_nanos(j.compute_ns),
        });
        ops.push(MpiOp::Allreduce { bytes: j.bytes });
        if let Some(c) = ckpt {
            if (it + 1) % c.every_iters == 0 && it + 1 < j.iters {
                ops.push(MpiOp::Checkpoint { cost: c.cost });
            }
        }
    }
    JobSpec::new(j.nprocs(), ops)
        .with_nodes(j.nodes)
        .with_id_base(id_base)
}

/// One job attempt's node occupancy: the nodes it held and the interval
/// it held them for. Collected for every attempt — completed, killed,
/// or crashed-and-requeued — so utilization can integrate true busy
/// time per node.
struct BusySpan {
    placement: Vec<usize>,
    from: SimTime,
    until: SimTime,
}

/// Busy node-seconds: per node, the measure of the union of its
/// occupancy intervals (co-resident jobs overlap instead of adding), of
/// the first `nnodes` node indices, summed over nodes. This is the
/// utilization numerator — with dedicated nodes it equals
/// Σ(nodes × run), under oversubscription it is strictly smaller than
/// that double-counting sum and can never exceed `nnodes × makespan`.
fn busy_node_seconds(spans: &[BusySpan], nnodes: usize) -> f64 {
    let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); nnodes];
    for s in spans {
        for &n in &s.placement {
            per_node[n].push((s.from, s.until));
        }
    }
    let mut total = 0.0f64;
    for spans in per_node.iter_mut() {
        spans.sort();
        let mut cur: Option<(SimTime, SimTime)> = None;
        for &(from, until) in spans.iter() {
            match cur {
                Some((cs, ce)) if from <= ce => cur = Some((cs, ce.max(until))),
                Some((cs, ce)) => {
                    total += ce.since(cs).as_secs_f64();
                    cur = Some((from, until));
                }
                None => cur = Some((from, until)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce.since(cs).as_secs_f64();
        }
    }
    total
}

/// Refill `occupancy[n]` with [`Cluster::active_jobs_on`] for every node.
fn fill_occupancy(cluster: &Cluster, occupancy: &mut [u32]) {
    for (n, occ) in occupancy.iter_mut().enumerate() {
        *occ = cluster.active_jobs_on(n) as u32;
    }
}

/// The latest node clock, by a scan over every node.
fn clock_scan(cluster: &Cluster) -> SimTime {
    (0..cluster.len())
        .map(|i| cluster.node(i).now())
        .max()
        .expect("cluster is non-empty")
}

/// The queue in arrival order, held twice in lock step: the engine's
/// records and the [`QueuedJob`] slice the policy reads, so a decision
/// point hands the policy the slice instead of rebuilding it.
#[derive(Default)]
struct PolicyQueue {
    jobs: Vec<Queued>,
    view: Vec<QueuedJob>,
}

impl PolicyQueue {
    fn push(&mut self, q: Queued) {
        self.view.push(QueuedJob {
            id: q.job.id,
            nodes: q.job.nodes,
            submitted: q.submitted,
            est_runtime: q.job.est_runtime(),
            user: q.job.user,
            class: q.job.class,
        });
        self.jobs.push(q);
    }

    fn remove(&mut self, idx: usize) -> Queued {
        self.view.remove(idx);
        self.jobs.remove(idx)
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// The per-node half of the policy's [`ClusterView`] (occupancy and
/// availability), the decision clock and the occupancy audit, kept
/// current from the cluster's changed-node feed
/// ([`Cluster::drain_changed`]): a sync costs the nodes changed since
/// the last one. The first sync, and every sync that sees the fault
/// generation move, rescans every node instead. Debug builds check the
/// result against the scans at every sync.
struct NodeTracker {
    /// Fault generation of the last rescan; `None` before the first.
    generation: Option<u64>,
    /// Scratch for the drained feed.
    changed: Vec<usize>,
    /// The latest node clock. Node clocks only move forward between
    /// faults, so the running max over changed nodes stays exact.
    clock: SimTime,
    /// The policy's occupancy limit.
    limit: u32,
    /// Nodes whose occupancy exceeds `limit`.
    over: usize,
    /// Nodes whose occupancy was rewritten since the last audit; every
    /// node when `audit_all` is set.
    unaudited: Vec<usize>,
    audit_all: bool,
}

impl NodeTracker {
    fn new(limit: u32) -> Self {
        NodeTracker {
            generation: None,
            changed: Vec::new(),
            clock: SimTime::ZERO,
            limit,
            over: 0,
            unaudited: Vec::new(),
            audit_all: true,
        }
    }

    /// Bring `view.occupancy`, `view.down` and the clock up to date and
    /// return the clock.
    fn sync(&mut self, cluster: &mut Cluster, view: &mut ClusterView) -> SimTime {
        cluster.drain_changed(&mut self.changed);
        let generation = cluster.fault_generation();
        if self.generation != Some(generation) {
            self.generation = Some(generation);
            fill_occupancy(cluster, &mut view.occupancy);
            for (n, down) in view.down.iter_mut().enumerate() {
                *down = !cluster.node_available(n);
            }
            self.clock = clock_scan(cluster);
            self.over = view.occupancy.iter().filter(|&&o| o > self.limit).count();
            self.unaudited.clear();
            self.audit_all = true;
        } else {
            for &n in &self.changed {
                let occ = cluster.active_jobs_on(n) as u32;
                let old = std::mem::replace(&mut view.occupancy[n], occ);
                self.over =
                    self.over + usize::from(occ > self.limit) - usize::from(old > self.limit);
                self.clock = self.clock.max(cluster.node(n).now());
                if !self.audit_all {
                    self.unaudited.push(n);
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check(cluster, view);
        self.clock
    }

    /// Panic unless the tracked state equals the full scans.
    #[cfg(debug_assertions)]
    fn check(&self, cluster: &Cluster, view: &ClusterView) {
        let mut occupancy = vec![0; cluster.len()];
        fill_occupancy(cluster, &mut occupancy);
        assert_eq!(view.occupancy, occupancy, "tracked occupancy is stale");
        let down: Vec<bool> = (0..cluster.len())
            .map(|n| !cluster.node_available(n))
            .collect();
        assert_eq!(view.down, down, "tracked availability is stale");
        assert_eq!(self.clock, clock_scan(cluster), "tracked clock is stale");
        let over = occupancy.iter().filter(|&&o| o > self.limit).count();
        assert_eq!(self.over, over, "tracked over-limit count is stale");
    }

    /// The occupancy audit at a decision point: fold every occupancy
    /// rewritten since the last audit into `max_occupancy`, and say
    /// whether some node is over the limit.
    fn audit(&mut self, view: &ClusterView, max_occupancy: &mut u32) -> bool {
        if self.audit_all {
            self.audit_all = false;
            *max_occupancy = view
                .occupancy
                .iter()
                .copied()
                .fold(*max_occupancy, u32::max);
        } else {
            for &n in &self.unaudited {
                *max_occupancy = (*max_occupancy).max(view.occupancy[n]);
            }
        }
        self.unaudited.clear();
        debug_assert!(view.occupancy.iter().all(|&o| o <= *max_occupancy));
        self.over > 0
    }
}

/// Builder for one batch run — the construction-API counterpart of
/// `hpl_cluster::ClusterBuilder`.
///
/// ```ignore
/// let report = BatchRun::new(&trace)
///     .mode(SchedMode::Hpc)
///     .checkpoint(CheckpointSpec { every_iters: 2, cost, restore })
///     .run(&mut cluster, &mut policy)?;
/// ```
#[derive(Debug)]
pub struct BatchRun<'a> {
    trace: &'a BatchTrace,
    cfg: BatchConfig,
}

impl<'a> BatchRun<'a> {
    /// Start describing a run of `trace` with default [`BatchConfig`].
    pub fn new(trace: &'a BatchTrace) -> Self {
        BatchRun {
            trace,
            cfg: BatchConfig::default(),
        }
    }

    /// Replace the whole config at once.
    pub fn config(mut self, cfg: BatchConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// OS-level scheduling mode for every job.
    pub fn mode(mut self, mode: SchedMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Cluster-wide dispatched-event budget.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.cfg.max_events = max_events;
        self
    }

    /// Bounded-slowdown runtime floor τ.
    pub fn slowdown_tau(mut self, tau: SimDuration) -> Self {
        self.cfg.slowdown_tau = tau;
        self
    }

    /// Enable periodic checkpoint/restart for every job.
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.cfg.checkpoint = Some(spec);
        self
    }

    /// Enforce walltime limits: kill jobs at `factor ×` their runtime
    /// estimate (see [`BatchConfig::walltime_factor`]).
    pub fn walltime(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "walltime factor below 1.0 kills on launch");
        self.cfg.walltime_factor = Some(factor);
        self
    }

    /// Execute the run. The cluster should be pre-warmed (daemon
    /// populations settled) and idle; the batch epoch is the latest
    /// node clock at entry. Returns the filled [`BatchReport`], or the
    /// failing [`RunOutcome`] if the co-simulation deadlocks or the
    /// event budget runs out. Batch-level lifecycle events are
    /// published to node 0's observers ([`hpl_kernel::Node::publish`]).
    pub fn run(
        self,
        cluster: &mut Cluster,
        policy: &mut dyn AllocPolicy,
    ) -> Result<BatchReport, RunOutcome> {
        run_batch_inner(cluster, self.trace, policy, &self.cfg, None)
    }

    /// Execute the run with a coordination runtime interposed: every
    /// launch goes through `coord` (so it can shim ranks), and every
    /// fractional share the policy hands out is *realized* on the nodes
    /// via [`JobCoordinator::set_share`] — in addition to being
    /// published as the advisory [`SchedEvent::JobShare`] it always
    /// was. [`Self::run`] is this with no coordinator, byte for byte.
    pub fn run_coordinated(
        self,
        cluster: &mut Cluster,
        policy: &mut dyn AllocPolicy,
        coord: &mut dyn JobCoordinator,
    ) -> Result<BatchReport, RunOutcome> {
        run_batch_inner(cluster, self.trace, policy, &self.cfg, Some(coord))
    }
}

fn run_batch_inner(
    cluster: &mut Cluster,
    trace: &BatchTrace,
    policy: &mut dyn AllocPolicy,
    cfg: &BatchConfig,
    mut coordinator: Option<&mut dyn JobCoordinator>,
) -> Result<BatchReport, RunOutcome> {
    let nnodes = cluster.len();
    if let Some(c) = &cfg.checkpoint {
        assert!(c.every_iters >= 1, "checkpoint interval must be >= 1");
    }
    for j in &trace.jobs {
        assert!(
            (j.nodes as usize) <= nnodes,
            "job {} wants {} nodes but the cluster has {nnodes}",
            j.id,
            j.nodes
        );
    }
    // The policy's snapshot, kept across decision points: `running`
    // mirrors `view.running` entry for entry (pushed together at launch,
    // swap-removed together at harvest), and the tracker keeps the
    // per-node fields current.
    let mut view = ClusterView {
        now: SimTime::ZERO,
        occupancy: vec![0; nnodes],
        running: Vec::new(),
        down: vec![false; nnodes],
    };
    let mut nodes = NodeTracker::new(policy.occupancy_limit());
    let epoch = nodes.sync(cluster, &mut view);
    let start_events = cluster.events_processed();

    // Trace order in, arrival order out (stable on ties by trace order).
    let mut pending: Vec<(SimTime, BatchJob)> = trace
        .jobs
        .iter()
        .map(|j| (epoch + SimDuration::from_nanos(j.submit_ns), j.clone()))
        .collect();
    pending.sort_by_key(|(at, j)| (*at, j.id));
    let mut pending = std::collections::VecDeque::from(pending);

    let mut queue = PolicyQueue::default();
    let mut running: Vec<Running> = Vec::new();
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    let mut busy_spans: Vec<BusySpan> = Vec::new();
    let mut next_id_base = ID_BASE_START;
    let mut max_queue_depth = 0u32;
    let mut max_node_occupancy = 0u32;
    let mut occupancy_violations = 0u64;
    let mut total_requeues = 0u64;
    let total_jobs = trace.jobs.len();

    while outcomes.len() < total_jobs {
        let now = nodes.sync(cluster, &mut view);

        // 1. Enforce walltime limits: a live job whose occupancy has
        //    reached `factor ×` its estimate is killed on the spot
        //    (its launcher trees die with node-local exit stamps, so
        //    the harvest below collects it this same decision point
        //    and its nodes free immediately). Crashed jobs are left to
        //    the requeue path; a job that finished inside the window
        //    reaps zero tasks and completes normally.
        if let Some(factor) = cfg.walltime_factor {
            for r in running.iter_mut() {
                if r.killed || cluster.job_failed(&r.handle) {
                    continue;
                }
                let limit = r.job.est_runtime().mul_f64(factor);
                if now.since(r.started) >= limit && cluster.cancel_job(&r.handle) > 0 {
                    r.killed = true;
                }
            }
        }

        // 2. Harvest completions and crash casualties. A failed job
        //    never ends (`job_end_time` stays `None`); it is requeued.
        let mut i = 0;
        while i < running.len() {
            if cluster.job_failed(&running[i].handle) {
                let r = running.swap_remove(i);
                view.running.swap_remove(i);
                // The attempt occupied its nodes until this decision
                // point (the crash landed inside the last window).
                busy_spans.push(BusySpan {
                    placement: r.handle.placement.clone(),
                    from: r.started,
                    until: now,
                });
                // Restart point: the last checkpoint every surviving
                // node committed. Generations count commits *in this
                // attempt*, on top of whatever the attempt already
                // skipped.
                let mut skip = 0;
                if let Some(c) = &cfg.checkpoint {
                    let committed = cluster
                        .job_survivors(&r.handle)
                        .iter()
                        .map(|&j| {
                            cluster
                                .node(r.handle.placement[j])
                                .sync
                                .barrier_generation(r.spec.ckpt_barrier_id(j as u32))
                        })
                        .min()
                        .unwrap_or(0);
                    skip = (r.skip_iters + committed as u32 * c.every_iters)
                        .min(r.job.iters.saturating_sub(1));
                }
                total_requeues += 1;
                cluster.node_mut(0).publish(SchedEvent::JobSubmit {
                    job: r.job.id,
                    queue_depth: queue.len() as u32 + 1,
                });
                queue.push(Queued {
                    job: r.job,
                    submitted: r.submitted,
                    skip_iters: skip,
                    requeues: r.requeues + 1,
                });
                max_queue_depth = max_queue_depth.max(queue.len() as u32);
                continue;
            }
            if let Some(ended) = cluster.job_end_time(&running[i].handle) {
                let r = running.swap_remove(i);
                view.running.swap_remove(i);
                busy_spans.push(BusySpan {
                    placement: r.handle.placement.clone(),
                    from: r.started,
                    until: ended,
                });
                let wait = r.started.since(r.submitted);
                let run = ended.since(r.started);
                let floor = run.max(cfg.slowdown_tau);
                let slowdown = ((wait + run).as_secs_f64() / floor.as_secs_f64()).max(1.0);
                outcomes.push(JobOutcome {
                    id: r.job.id,
                    nodes: r.job.nodes,
                    submitted: r.submitted,
                    started: r.started,
                    ended,
                    wait,
                    run,
                    bounded_slowdown: slowdown,
                    requeues: r.requeues,
                    user: r.job.user,
                    killed: r.killed,
                });
                cluster.node_mut(0).publish(SchedEvent::JobEnd {
                    job: r.job.id,
                    queue_depth: queue.len() as u32,
                });
            } else {
                i += 1;
            }
        }

        // 3. Admit arrivals that have come due.
        while pending.front().is_some_and(|(at, _)| *at <= now) {
            let (at, job) = pending.pop_front().expect("checked front");
            queue.push(Queued {
                job: job.clone(),
                submitted: at,
                skip_iters: 0,
                requeues: 0,
            });
            max_queue_depth = max_queue_depth.max(queue.len() as u32);
            cluster.node_mut(0).publish(SchedEvent::JobSubmit {
                job: job.id,
                queue_depth: queue.len() as u32,
            });
        }

        // 4. Allocate until the policy passes. The per-node fields are
        //    synced once per decision point and again after each launch;
        //    the running list and the queue slice are already current.
        view.now = now;
        nodes.sync(cluster, &mut view);
        while !queue.is_empty() {
            let Some(alloc) = policy.select(&queue.view, &view) else {
                break;
            };
            let q = queue.remove(alloc.queue_idx);
            let submitted = q.submitted;
            let spec = job_spec(&q.job, next_id_base, cfg.checkpoint.as_ref(), q.skip_iters);
            next_id_base = *spec.id_range().end() + 1 + ID_GAP;
            let handle = match &mut coordinator {
                Some(c) => c.launch(cluster, &spec, cfg.mode, Placement::on(&alloc.placement)),
                None => cluster.launch(&spec, cfg.mode, Placement::on(&alloc.placement)),
            };
            // Batch-level start stamp: the decision-point clock (node
            // clocks inside one lockstep window can lag it by less than
            // the lookahead, and `submitted <= now` must hold).
            let started = now;
            cluster.node_mut(0).publish(SchedEvent::JobStart {
                job: q.job.id,
                queue_depth: queue.len() as u32,
                waited: started.since(submitted),
            });
            view.running.push(RunningJob {
                id: q.job.id,
                placement: handle.placement.clone(),
                est_end: started + q.job.est_runtime(),
            });
            running.push(Running {
                job: q.job,
                spec,
                handle,
                submitted,
                started,
                skip_iters: q.skip_iters,
                requeues: q.requeues,
                killed: false,
            });
            nodes.sync(cluster, &mut view);
        }

        // 5. Fractional-share reallocation (DFRS): the policy may
        //    recompute per-job CPU shares at its own period; each share
        //    is published so observers and the torture oracle can audit
        //    conservation. Slot-based policies return nothing here and
        //    stay untouched bit for bit.
        for (node, job, share_milli) in policy.share_update(&view) {
            cluster.node_mut(0).publish(SchedEvent::JobShare {
                job,
                node: node as u32,
                share_milli,
            });
            // With a coordinator installed the share stops being
            // advisory: realize it on the node, addressed by the job's
            // gang id (its id base — unique among co-residents by the
            // launch-time disjointness rule).
            if let Some(c) = &mut coordinator {
                if let Some(r) = running.iter().find(|r| r.job.id == job) {
                    c.set_share(cluster, node, r.spec.id_base, share_milli);
                }
            }
        }

        // 6. Occupancy audit against the policy's promise (re-synced in
        //    case a coordinator acted on the cluster since).
        nodes.sync(cluster, &mut view);
        if nodes.audit(&view, &mut max_node_occupancy) {
            occupancy_violations += 1;
        }

        if outcomes.len() == total_jobs {
            break;
        }

        // 7. Advance virtual time one lockstep window.
        if !cluster.step_window() {
            if running.is_empty() && !pending.is_empty() {
                // Every queue drained while waiting for the next
                // arrival (possible only on fully tickless idle
                // clusters): jump the clocks to the arrival.
                let jump_to = pending.front().expect("non-empty").0;
                for n in 0..nnodes {
                    // Crashed nodes stay frozen — a restart event will
                    // re-clock them when (if) it lands.
                    if cluster.node_down(n) {
                        continue;
                    }
                    cluster.node_mut(n).run_until_time(jump_to);
                }
                continue;
            }
            return Err(RunOutcome::Deadlock);
        }
        if cluster.events_processed() - start_events > cfg.max_events {
            return Err(RunOutcome::BudgetExhausted);
        }
    }

    let first_submit = outcomes.iter().map(|o| o.submitted).min().unwrap_or(epoch);
    let last_end = outcomes.iter().map(|o| o.ended).max().unwrap_or(epoch);
    let makespan = last_end.since(first_submit);
    let node_seconds = busy_node_seconds(&busy_spans, nnodes);
    let denom = nnodes as f64 * makespan.as_secs_f64();
    let utilization = if denom > 0.0 {
        node_seconds / denom
    } else {
        0.0
    };
    let n = outcomes.len().max(1) as f64;
    let mean_wait = SimDuration::from_nanos(
        (outcomes.iter().map(|o| o.wait.as_nanos()).sum::<u64>() as f64 / n) as u64,
    );
    let mean_bounded_slowdown = outcomes.iter().map(|o| o.bounded_slowdown).sum::<f64>() / n;
    let jobs_lost = (total_jobs - outcomes.len()) as u64;
    let jobs_killed = outcomes.iter().filter(|o| o.killed).count() as u64;

    // Per-user breakdown, ascending by user id (BTreeMap order) so the
    // report stays bit-comparable across runs.
    let mut by_user: std::collections::BTreeMap<u32, Vec<&JobOutcome>> =
        std::collections::BTreeMap::new();
    for o in &outcomes {
        by_user.entry(o.user).or_default().push(o);
    }
    let user_stats: Vec<UserStats> = by_user
        .into_iter()
        .map(|(user, rows)| {
            let n = rows.len() as f64;
            UserStats {
                user,
                jobs: rows.len() as u32,
                killed: rows.iter().filter(|o| o.killed).count() as u32,
                mean_wait: SimDuration::from_nanos(
                    (rows.iter().map(|o| o.wait.as_nanos()).sum::<u64>() as f64 / n) as u64,
                ),
                mean_bounded_slowdown: rows.iter().map(|o| o.bounded_slowdown).sum::<f64>() / n,
            }
        })
        .collect();

    Ok(BatchReport {
        policy: policy.name(),
        outcomes,
        makespan,
        utilization,
        mean_wait,
        mean_bounded_slowdown,
        max_queue_depth,
        max_node_occupancy,
        occupancy_violations,
        requeues: total_requeues,
        jobs_lost,
        jobs_killed,
        user_stats,
        fingerprint: cluster.state_fingerprint(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(placement: &[usize], from_ns: u64, until_ns: u64) -> BusySpan {
        BusySpan {
            placement: placement.to_vec(),
            from: SimTime::from_nanos(from_ns),
            until: SimTime::from_nanos(until_ns),
        }
    }

    #[test]
    fn busy_seconds_count_coresident_jobs_once() {
        // Two jobs fully overlapping on node 0 (oversubscription): the
        // node was busy 1 s, not 2 s.
        let spans = [span(&[0], 0, 1_000_000_000), span(&[0], 0, 1_000_000_000)];
        assert_eq!(busy_node_seconds(&spans, 2), 1.0);
        // Partial overlap merges into one interval per node.
        let spans = [
            span(&[0], 0, 600_000_000),
            span(&[0], 400_000_000, 1_000_000_000),
        ];
        assert_eq!(busy_node_seconds(&spans, 1), 1.0);
        // Disjoint intervals add; a multi-node span counts every node.
        let spans = [
            span(&[0, 1], 0, 500_000_000),
            span(&[0], 700_000_000, 900_000_000),
        ];
        assert_eq!(busy_node_seconds(&spans, 2), 1.2);
        assert_eq!(busy_node_seconds(&[], 4), 0.0);
    }

    #[test]
    fn busy_seconds_bound_oversubscribed_utilization() {
        // The old Σ(nodes × run) numerator would report 2.0 node-
        // seconds here against 1.0 of capacity (utilization 2.0); the
        // interval union caps at the node's wall-clock time.
        let spans = [span(&[0], 0, 1_000_000_000), span(&[0], 0, 1_000_000_000)];
        let capacity = 1.0 * 1.0; // 1 node × 1 s makespan
        assert!(busy_node_seconds(&spans, 1) <= capacity);
    }
}
