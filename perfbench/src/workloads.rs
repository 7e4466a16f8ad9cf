//! The four workloads. Each repetition sets up its inputs from the
//! seed, runs one measured phase, checks the simulated outputs, and
//! returns a [`Rep`]. With a [`Probe`] the same calls are made inside
//! spans, and per-layer figures are filled in from the spans and from
//! counters read at the same boundaries.

use crate::spans::{timed, traced, Probe, Tracer};
use crate::wrap::{MeteredPolicy, TimedCoord, TimedPolicy};
use hpl_batch::{
    AllocPolicy, BatchReport, BatchRun, BatchTrace, Dfrs, EasyBackfill, SwfMap, SwfTrace,
    TraceTransform,
};
use hpl_bench::harness::{run_once, NoiseKind, RunConfig, Scheduler};
use hpl_cluster::{
    Cluster, ClusterJobHandle, CosimConfig, Interconnect, JobCoordinator, NetConfig, Placement,
};
use hpl_coord::CoordRuntime;
use hpl_core::HplClass;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, Node, NodeBuilder, RunOutcome};
use hpl_mpi::{launch, JobSpec, MpiOp, SchedMode};
use hpl_perf::{PerfSession, RunRecord, SwEvent};
use hpl_sim::{Rng, SimDuration, SimTime};
use hpl_topology::Topology;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

/// The SWF fixture the batch workloads replay.
const SWF_FIXTURE: &str = include_str!("../../crates/batch/tests/data/sp2_sample.swf");

/// Hang guard per NAS repetition, as in `harness::run_once`.
const NAS_MAX_EVENTS: u64 = 40_000_000_000;

/// Host-time hang guard for the benchmark's own window loop.
const WIDE_MAX_HOST_S: f64 = 150.0;

/// A workload, by the name the command line and reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's NAS study on one node, serial repetitions.
    NodeNas,
    /// One bulk-synchronous job across a wide cluster.
    ClusterWide,
    /// The SWF slice under EASY backfilling on dedicated nodes.
    BatchEasy,
    /// The SWF slice under DFRS with the user-space coordinator.
    BatchDfrsCoord,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::NodeNas,
        Workload::ClusterWide,
        Workload::BatchEasy,
        Workload::BatchDfrsCoord,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeNas => "node-nas",
            Workload::ClusterWide => "cluster-wide",
            Workload::BatchEasy => "batch-easy",
            Workload::BatchDfrsCoord => "batch-dfrs-coord",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A slice of the SWF fixture mapped onto a cluster.
#[derive(Debug, Clone, Copy)]
pub struct SwfSlice {
    /// Cluster width the jobs are mapped onto.
    pub nodes: u32,
    /// Leading fixture jobs kept.
    pub take: usize,
    /// Times the kept jobs are replayed end to end.
    pub tile: u32,
}

/// Input sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] exercises the same code paths in a fraction of a
/// second for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Leading NAS configurations run (of 12).
    pub nas_configs: usize,
    /// Repetitions per NAS configuration and kernel.
    pub nas_reps: u64,
    /// Nodes in the cluster-wide job.
    pub wide_nodes: u32,
    /// Compute + allreduce iterations of the cluster-wide job.
    pub wide_iters: u32,
    /// The batch-easy slice.
    pub easy: SwfSlice,
    /// The batch-dfrs-coord slice.
    pub dfrs: SwfSlice,
}

impl Scale {
    /// The measured size.
    pub fn full() -> Scale {
        Scale {
            nas_configs: 12,
            nas_reps: 3,
            wide_nodes: 1024,
            wide_iters: 3,
            easy: SwfSlice {
                nodes: 64,
                take: 64,
                tile: 2,
            },
            dfrs: SwfSlice {
                nodes: 32,
                take: 64,
                tile: 2,
            },
        }
    }

    /// The test size.
    pub fn tiny() -> Scale {
        Scale {
            nas_configs: 1,
            nas_reps: 1,
            wide_nodes: 8,
            wide_iters: 2,
            easy: SwfSlice {
                nodes: 8,
                take: 6,
                tile: 1,
            },
            dfrs: SwfSlice {
                nodes: 4,
                take: 6,
                tile: 1,
            },
        }
    }
}

/// One repetition's results.
#[derive(Debug, Default)]
pub struct Rep {
    /// Reference-host seconds spent building and warming up inputs
    /// (untraced; host seconds when traced).
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// The measured phase in reference-host seconds (see
    /// [`crate::meter`]); equal to `wall_s` when traced.
    pub ref_wall_s: f64,
    /// Simulated node-seconds advanced in the measured phase.
    pub node_secs: f64,
    /// Work units attempted.
    pub attempted: u64,
    /// Work units that failed or failed a check.
    pub failed: u64,
    /// Simulated time to finish all the work, seconds.
    pub makespan_s: f64,
    /// Mean bounded slowdown of the work units.
    pub mean_bounded_slowdown: f64,
    /// Mean HPL execution-time variation over the NAS configs, percent
    /// (0 on workloads without repeated NAS configs).
    pub hpl_variation_pct: f64,
    /// Hash of every simulated output of the repetition.
    pub digest: u64,
    /// Per-layer figures (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The spans of a traced repetition.
    pub tracer: Option<Tracer>,
}

/// FNV-1a over the simulated outputs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: &impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// Run one repetition of `w`.
pub fn run_rep(w: Workload, scale: &Scale, seed: u64, probe: Probe) -> Rep {
    let mut rep = match w {
        Workload::NodeNas => node_nas(scale, seed, &probe),
        Workload::ClusterWide => cluster_wide(scale, seed, &probe),
        Workload::BatchEasy => batch(&scale.easy, seed, &probe, false),
        Workload::BatchDfrsCoord => batch(&scale.dfrs, seed, &probe, true),
    };
    if let Some(tr) = probe {
        let tracer = std::rc::Rc::try_unwrap(tr)
            .expect("the workload released every tracer handle")
            .into_inner();
        crate::report::span_layers(&tracer, &mut rep.layers);
        rep.tracer = Some(tracer);
    }
    rep
}

/// Time `f`: metered when untraced, plain host seconds when traced.
/// Returns `(result, host seconds, reference-host seconds)`.
fn clock<R>(probe: &Probe, f: impl FnOnce() -> R) -> (R, f64, f64) {
    if probe.is_some() {
        let t0 = Instant::now();
        let r = f();
        let wall = t0.elapsed().as_secs_f64();
        (r, wall, wall)
    } else {
        crate::meter::begin();
        let r = f();
        let (wall, ref_wall) = crate::meter::end();
        (r, wall, ref_wall)
    }
}

/// Time the measured phase, with process CPU seconds when tracing.
/// Returns `(result, host seconds, reference-host seconds)`.
fn measure<R>(
    probe: &Probe,
    layers: &mut BTreeMap<&'static str, f64>,
    f: impl FnOnce() -> R,
) -> (R, f64, f64) {
    let cpu0 = probe.as_ref().map(|_| crate::host::cpu_times());
    let out = clock(probe, || timed(probe, "rep.measure", f));
    if let Some((u0, s0)) = cpu0 {
        let (u1, s1) = crate::host::cpu_times();
        layers.insert("process.user_s", u1 - u0);
        layers.insert("process.sys_s", s1 - s0);
    }
    out
}

/// Untraced repetitions set up this many times and keep the last
/// set-up, so `setup_s` is a median of several samples.
const SETUP_SAMPLES: usize = 5;

/// Time the set-up phase: the median reference-host seconds over
/// [`SETUP_SAMPLES`] set-ups untraced, one traced set-up otherwise.
fn setup<R>(probe: &Probe, mut f: impl FnMut() -> R) -> (R, f64) {
    let samples = if probe.is_some() { 1 } else { SETUP_SAMPLES };
    let mut out = None;
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        // Drop the previous set-up first, so peak memory holds one.
        drop(out.take());
        let (r, _, ref_s) = clock(probe, || timed(probe, "rep.setup", &mut f));
        out = Some(r);
        times.push(ref_s);
    }
    (
        out.expect("at least one set-up"),
        crate::report::median(times),
    )
}

// ------------------------------------------------------------------
// node-nas
// ------------------------------------------------------------------

/// The NAS study: each configuration on the standard kernel and on HPL.
fn nas_configs(scale: &Scale, seed: u64) -> Vec<RunConfig> {
    let mut cfgs = Vec::new();
    for (b, c) in hpl_workloads::nas::all_configs()
        .into_iter()
        .take(scale.nas_configs)
    {
        let label = format!("{}.{}.8", b.name(), c.name());
        let job = hpl_workloads::nas_job(b, c, 8);
        for (sched, mode) in [
            (Scheduler::StandardLinux, SchedMode::Cfs),
            (Scheduler::Hpl, SchedMode::Hpc),
        ] {
            cfgs.push(
                RunConfig::new(label.clone(), job.clone(), mode, sched)
                    .with_reps(scale.nas_reps as u32)
                    .with_seed(seed),
            );
        }
    }
    cfgs
}

/// The node `harness::run_once` boots for the two kernels used here.
fn nas_node(cfg: &RunConfig, seed: u64) -> Node {
    assert!(matches!(cfg.noise, NoiseKind::Standard));
    let noise = NoiseProfile::standard(cfg.topo.total_cpus());
    let builder = |kc: KernelConfig| {
        NodeBuilder::new(cfg.topo.clone())
            .with_config(kc)
            .with_noise(noise.clone())
            .with_seed(seed)
    };
    match cfg.scheduler {
        Scheduler::StandardLinux => builder(KernelConfig::default()).build(),
        Scheduler::Hpl => builder(KernelConfig::hpl())
            .with_hpc_class(Box::new(HplClass::new()))
            .build(),
        other => unreachable!("node-nas runs no {other:?} configs"),
    }
}

#[derive(Default)]
struct NasAcc {
    events: u64,
    node_secs: f64,
    launches: u64,
}

/// `harness::run_once`, inlined so each call into a layer is timed.
fn nas_rep(
    cfg: &RunConfig,
    rep: u64,
    probe: &Probe,
    acc: &mut NasAcc,
    d: &mut Digest,
) -> RunRecord {
    let seed = Rng::for_run(cfg.base_seed, rep).next_u64();
    let mut node = timed(probe, "kernel.build", || nas_node(cfg, seed));
    timed(probe, "kernel.run", || node.run_for(cfg.warmup));
    let launched = node.now();
    let mut session = PerfSession::open(&node.counters, launched);
    let handle = timed(probe, "mpi.launch", || {
        launch(&mut node, &cfg.job, cfg.mode)
    });
    let ran = timed(probe, "kernel.run", || {
        handle.try_run_to_completion(&mut node, NAS_MAX_EVENTS)
    });
    let (exec, outcome) = match ran {
        Ok(exec) => (exec, RunOutcome::Completed),
        Err(outcome) => (node.now().since(launched), outcome),
    };
    session.close(&node.counters, node.now());
    let rec =
        RunRecord::from_delta(rep, exec.as_secs_f64(), &session.delta()).with_outcome(outcome);
    acc.events += node.events_processed();
    acc.node_secs += node.now().since(SimTime::ZERO).as_secs_f64();
    acc.launches += 1;
    d.debug(&rec);
    d.u64(node.state_fingerprint());
    rec
}

fn node_nas(scale: &Scale, seed: u64, probe: &Probe) -> Rep {
    // Set-up builds the study and the reference records that the
    // measured repetitions of the first configuration pair must equal.
    let ((cfgs, reference), setup_s) = setup(probe, || {
        let cfgs = nas_configs(scale, seed);
        let reference: Vec<RunRecord> = cfgs.iter().take(2).map(|c| run_once(c, 0)).collect();
        (cfgs, reference)
    });
    let mut layers = BTreeMap::new();
    let mut acc = NasAcc::default();
    let mut d = Digest::new();
    let (records, wall_s, ref_wall_s) = measure(probe, &mut layers, || {
        cfgs.iter()
            .map(|c| {
                (0..c.reps as u64)
                    .map(|r| {
                        let rec = nas_rep(c, r, probe, &mut acc, &mut d);
                        crate::meter::tick();
                        rec
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let all = || records.iter().flatten();
    let mut failed = all().filter(|r| !r.outcome.is_complete()).count() as u64;
    failed += reference
        .iter()
        .zip(&records)
        .filter(|(want, got)| got.first() != Some(*want))
        .count() as u64;
    let hpl: Vec<f64> = cfgs
        .iter()
        .zip(&records)
        .filter(|(c, _)| c.scheduler == Scheduler::Hpl)
        .map(|(_, recs)| {
            let (lo, hi) = recs.iter().fold((f64::MAX, 0.0f64), |(lo, hi), r| {
                (lo.min(r.exec_time_s), hi.max(r.exec_time_s))
            });
            (hi - lo) / lo * 100.0
        })
        .collect();
    if let Some(tr) = probe {
        tr.borrow_mut().count("kernel.run_events", acc.events);
        layers.insert("kernel.events", acc.events as f64);
        layers.insert(
            "kernel.ctx_switches",
            all().map(|r| r.context_switches).sum::<u64>() as f64,
        );
        layers.insert(
            "kernel.migrations",
            all().map(|r| r.cpu_migrations).sum::<u64>() as f64,
        );
        layers.insert("mpi.launch.calls", acc.launches as f64);
    }
    Rep {
        setup_s,
        wall_s,
        ref_wall_s,
        node_secs: acc.node_secs,
        attempted: all().count() as u64,
        failed,
        makespan_s: all().map(|r| r.exec_time_s).sum(),
        // Every rep runs alone on a dedicated node: no queue wait.
        mean_bounded_slowdown: 1.0,
        hpl_variation_pct: hpl.iter().sum::<f64>() / hpl.len().max(1) as f64,
        digest: d.0,
        layers,
        tracer: None,
    }
}

// ------------------------------------------------------------------
// Shared cluster helpers
// ------------------------------------------------------------------

/// Build and warm up an HPL cluster of `nodes` two-CPU nodes on a flat
/// fabric, stepped serially.
fn hpl_cluster(
    nodes: u32,
    seed: u64,
    noise_scale: f64,
    warmup: SimDuration,
    probe: &Probe,
) -> Cluster {
    let n = nodes as usize;
    let p = probe.clone();
    let builder = Cluster::builder()
        .nodes_with(n, move |i| {
            timed(&p, "kernel.build", || {
                NodeBuilder::new(Topology::smp(2))
                    .with_config(KernelConfig::hpl())
                    .with_noise(NoiseProfile::standard(2).scaled(noise_scale))
                    .with_seed(Rng::for_run(seed, i as u64).next_u64())
                    .with_hpc_class(Box::new(HplClass::new()))
                    .build()
            })
        })
        .fabric(Interconnect::flat(n, NetConfig::default()))
        .cosim(CosimConfig::serial());
    let mut cluster = timed(probe, "cluster.build", || builder.build());
    for i in 0..n {
        timed(probe, "kernel.run", || cluster.node_mut(i).run_for(warmup));
    }
    if let Some(tr) = probe {
        tr.borrow_mut()
            .count("kernel.run_events", cluster.events_processed());
    }
    cluster
}

/// Node clocks and, when tracing, perf windows, taken just before the
/// measured phase.
struct Before {
    clocks: Vec<SimTime>,
    sessions: Vec<PerfSession>,
}

impl Before {
    fn take(cluster: &Cluster, probe: &Probe) -> Before {
        let nodes = cluster.nodes();
        Before {
            clocks: nodes.iter().map(Node::now).collect(),
            sessions: if probe.is_some() {
                nodes
                    .iter()
                    .map(|n| PerfSession::open(&n.counters, n.now()))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Simulated node-seconds since [`Self::take`]; fills the kernel
    /// and network per-layer counts when tracing.
    fn finish(
        mut self,
        cluster: &Cluster,
        layers: &mut BTreeMap<&'static str, f64>,
        probe: &Probe,
    ) -> f64 {
        let nodes = cluster.nodes();
        let node_secs = nodes
            .iter()
            .zip(&self.clocks)
            .map(|(n, t)| n.now().since(*t).as_secs_f64())
            .sum();
        if probe.is_some() {
            let (mut ctx, mut migr) = (0u64, 0u64);
            for (s, n) in self.sessions.iter_mut().zip(nodes) {
                s.close(&n.counters, n.now());
                ctx += s.delta().sw(SwEvent::ContextSwitches);
                migr += s.delta().sw(SwEvent::CpuMigrations);
            }
            layers.insert("kernel.events", cluster.events_processed() as f64);
            layers.insert("kernel.ctx_switches", ctx as f64);
            layers.insert("kernel.migrations", migr as f64);
            layers.insert("cluster.msgs", cluster.net().messages() as f64);
            layers.insert("cluster.net_bytes", cluster.net().bytes() as f64);
        }
        node_secs
    }
}

// ------------------------------------------------------------------
// cluster-wide
// ------------------------------------------------------------------

fn wide_job(nodes: u32, iters: u32) -> JobSpec {
    JobSpec::new(
        nodes * 2,
        JobSpec::repeat(
            iters,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_micros(200),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    )
    .with_nodes(nodes)
}

/// The lockstep loop of `Cluster::try_run_to_completion`, with each
/// `step_window` call timed. When tracing it also times one extra
/// `next_event_time` call per window and counts the nodes whose event
/// count moved.
fn drive(cluster: &mut Cluster, handle: &ClusterJobHandle, probe: &Probe) -> RunOutcome {
    let t0 = Instant::now();
    let mut seen: Vec<u64> = match probe {
        Some(_) => cluster.nodes().iter().map(Node::events_processed).collect(),
        None => Vec::new(),
    };
    let mut windows = 0u64;
    loop {
        if cluster.job_done(handle) {
            return RunOutcome::Completed;
        }
        if cluster.job_failed(handle) {
            return RunOutcome::Deadlock;
        }
        if let Some(tr) = probe {
            traced(tr, "cluster.next_event_time", || {
                std::hint::black_box(cluster.next_event_time())
            });
        }
        if !timed(probe, "cluster.step", || cluster.step_window()) {
            return RunOutcome::Deadlock;
        }
        if let Some(tr) = probe {
            traced(tr, "trace.probe", || {
                let (mut active, mut events) = (0u64, 0u64);
                for (last, node) in seen.iter_mut().zip(cluster.nodes()) {
                    let now = node.events_processed();
                    if now != *last {
                        active += 1;
                        events += now - *last;
                        *last = now;
                    }
                }
                let mut t = tr.borrow_mut();
                t.count("cluster.active_nodes", active);
                t.count("cluster.window_events", events);
            });
        }
        windows += 1;
        if windows.is_multiple_of(256) {
            crate::meter::tick();
            if t0.elapsed().as_secs_f64() > WIDE_MAX_HOST_S {
                return RunOutcome::BudgetExhausted;
            }
        }
    }
}

fn cluster_wide(scale: &Scale, seed: u64, probe: &Probe) -> Rep {
    let n = scale.wide_nodes;
    let ((mut cluster, job), setup_s) = setup(probe, || {
        let cluster = hpl_cluster(n, seed, 0.25, SimDuration::from_millis(20), probe);
        (cluster, wide_job(n, scale.wide_iters))
    });
    let before = Before::take(&cluster, probe);
    let mut layers = BTreeMap::new();
    let ((handle, outcome), wall_s, ref_wall_s) = measure(probe, &mut layers, || {
        let handle = timed(probe, "cluster.launch", || {
            cluster.launch(&job, SchedMode::Hpc, Placement::All)
        });
        let outcome = drive(&mut cluster, &handle, probe);
        (handle, outcome)
    });
    let node_secs = before.finish(&cluster, &mut layers, probe);
    let exec = cluster.job_exec_time(&handle);
    let mut d = Digest::new();
    d.debug(&(outcome, exec));
    d.u64(cluster.state_fingerprint());
    d.u64(cluster.events_processed());
    d.u64(cluster.net().messages());
    d.u64(cluster.net().bytes());
    let ok = outcome.is_complete() && exec.is_some();
    Rep {
        setup_s,
        wall_s,
        ref_wall_s,
        node_secs,
        attempted: 1,
        failed: u64::from(!ok),
        makespan_s: exec.map_or(0.0, |e| e.as_secs_f64()),
        // One job on an idle cluster: no queue wait.
        mean_bounded_slowdown: 1.0,
        hpl_variation_pct: 0.0,
        digest: d.0,
        layers,
        tracer: None,
    }
}

// ------------------------------------------------------------------
// batch-easy and batch-dfrs-coord
// ------------------------------------------------------------------

/// DFRS reallocation period.
const DFRS_PERIOD: SimDuration = SimDuration::from_millis(1);

/// User-space coordinator slice period.
const COORD_EPOCH: SimDuration = SimDuration::from_micros(500);

/// The fixture slice under the capacity cell's time compression: 10x
/// then 5x on arrivals, 5x on runtimes.
fn swf_trace(slice: &SwfSlice) -> BatchTrace {
    let swf = SwfTrace::from_text(SWF_FIXTURE).expect("the SWF fixture parses");
    let (mapped, _dropped) = swf.to_batch(&SwfMap::for_cluster(slice.nodes).ns_per_sec(2_000.0));
    TraceTransform::new()
        .take(slice.take)
        .arrival_scale(0.1 * 0.2)
        .runtime_scale(0.2)
        .tile(slice.tile)
        .apply(&mapped)
}

/// One engine run. Untraced, the policy is wrapped only so the meter
/// can cut the run into segments; traced, the policy and coordinator
/// are timed.
fn engine_run(
    trace: &BatchTrace,
    cluster: &mut Cluster,
    policy: &mut dyn AllocPolicy,
    coord: Option<&mut dyn JobCoordinator>,
    probe: &Probe,
) -> Result<BatchReport, RunOutcome> {
    let run = BatchRun::new(trace);
    match (probe, coord) {
        (None, coord) => {
            let mut p = MeteredPolicy::new(policy);
            match coord {
                None => run.run(cluster, &mut p),
                Some(c) => run.run_coordinated(cluster, &mut p, c),
            }
        }
        (Some(tr), coord) => traced(tr, "batch.run", || {
            let mut p = TimedPolicy::new(policy, tr.clone());
            match coord {
                None => run.run(cluster, &mut p),
                Some(c) => {
                    let mut c = TimedCoord::new(c, tr.clone());
                    run.run_coordinated(cluster, &mut p, &mut c)
                }
            }
        }),
    }
}

fn batch(slice: &SwfSlice, seed: u64, probe: &Probe, dfrs: bool) -> Rep {
    let ((trace, mut cluster, mut coord), setup_s) = setup(probe, || {
        let trace = swf_trace(slice);
        let mut cluster = hpl_cluster(slice.nodes, seed, 1.0, SimDuration::from_millis(300), probe);
        let coord = dfrs.then(|| {
            let mut rt = CoordRuntime::user_space(COORD_EPOCH);
            rt.install(&mut cluster);
            rt
        });
        (trace, cluster, coord)
    });
    let mut easy = EasyBackfill::new();
    let mut dfrs_policy = Dfrs::new(DFRS_PERIOD, seed);
    let policy: &mut dyn AllocPolicy = if dfrs { &mut dfrs_policy } else { &mut easy };
    let before = Before::take(&cluster, probe);
    let mut layers = BTreeMap::new();
    let (result, wall_s, ref_wall_s) = measure(probe, &mut layers, || {
        let c = coord.as_mut().map(|c| c as &mut dyn JobCoordinator);
        engine_run(&trace, &mut cluster, policy, c, probe)
    });
    let node_secs = before.finish(&cluster, &mut layers, probe);
    let share_violations = dfrs_policy.share_violations();
    let stats = coord
        .as_ref()
        .map(CoordRuntime::total_stats)
        .unwrap_or_default();
    let jobs = trace.jobs.len() as u64;
    let mut d = Digest::new();
    d.debug(&result);
    d.debug(&(share_violations, stats));
    let (failed, makespan_s, mbsld) = match &result {
        Ok(r) => {
            let done = r.outcomes.iter().filter(|o| !o.killed).count() as u64;
            let audit_ok = r.jobs_lost == 0 && r.occupancy_violations == 0 && share_violations == 0;
            let failed = if audit_ok {
                jobs - done.min(jobs)
            } else {
                jobs
            };
            (failed, r.makespan.as_secs_f64(), r.mean_bounded_slowdown)
        }
        Err(_) => (jobs, 0.0, 0.0),
    };
    if let (Some(_), Ok(r)) = (probe, &result) {
        layers.insert("batch.max_queue_depth", f64::from(r.max_queue_depth));
        layers.insert("batch.jobs_completed", r.outcomes.len() as f64);
        layers.insert("coord.leases", stats.leases as f64);
        layers.insert("coord.grants", stats.grants as f64);
        layers.insert("coord.blocks", stats.blocks as f64);
    }
    Rep {
        setup_s,
        wall_s,
        ref_wall_s,
        node_secs,
        attempted: jobs,
        failed,
        makespan_s,
        mean_bounded_slowdown: mbsld,
        hpl_variation_pct: 0.0,
        digest: d.0,
        layers,
        tracer: None,
    }
}
