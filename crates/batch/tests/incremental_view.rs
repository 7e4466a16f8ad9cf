//! The engine's incremental decision-point view under churn. Between
//! decision points the engine refreshes only the nodes the cluster
//! reports as changed, and rescans everything when the fault generation
//! moves; debug builds check the result against full scans (occupancy,
//! availability, clock, over-limit count) at every sync. These runs
//! drive every policy through the paths that change node state behind
//! the engine's back — crash and restart, drain, walltime kills, crash
//! requeues, coordinated launches and share updates — so in a debug
//! build a stale entry fails the run at the decision point it appears.

use hpl_batch::{
    AllocPolicy, BatchJob, BatchReport, BatchRun, BatchTrace, ConservativeBackfill, Dfrs,
    EasyBackfill, FairShare, Fcfs, MultiQueue, Oversubscribed,
};
use hpl_cluster::{Cluster, FaultPlan, Interconnect, NetConfig};
use hpl_coord::CoordRuntime;
use hpl_core::HplClass;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_sim::{Rng, SimDuration, SimTime};
use hpl_topology::Topology;

const NODES: usize = 4;
const WARMUP_MS: u64 = 100;
const GANG_EPOCH: SimDuration = SimDuration::from_micros(500);

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

fn build_cluster(seed: u64, faults: FaultPlan) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(NODES, move |i| {
            let mut cfg = KernelConfig::hpl();
            cfg.gang_epoch = Some(GANG_EPOCH);
            NodeBuilder::new(Topology::smp(2))
                .with_config(cfg)
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(NODES, NetConfig::default()))
        .faults(faults)
        .build();
    for i in 0..NODES {
        cluster
            .node_mut(i)
            .run_for(SimDuration::from_millis(WARMUP_MS));
    }
    cluster
}

/// A job of `iters` × `compute_ms` iterations whose estimate covers
/// the ~45 ms launch and teardown overhead, or `est_ms` when given.
fn bj(id: u32, submit_ms: u64, nodes: u32, compute_ms: u64, est_ms: Option<u64>) -> BatchJob {
    let iters = 2;
    let nominal = u64::from(iters) * compute_ms * 1_000_000;
    BatchJob {
        id,
        submit_ns: submit_ms * 1_000_000,
        nodes,
        ranks_per_node: 2,
        iters,
        compute_ns: compute_ms * 1_000_000,
        bytes: 64,
        est_runtime_ns: est_ms.map_or(4 * nominal + 60_000_000, |e| e * 1_000_000),
        user: id % 3,
        class: id % 2,
    }
}

/// Job 0 holds nodes 0 and 1 when node 1 crashes (requeue); job 1
/// under-estimates and is killed at its walltime; job 2 needs every
/// node, so it waits out the drain of node 3 with a far-future shadow;
/// the rest are narrow jobs for the backfill and co-residence paths.
fn trace() -> BatchTrace {
    BatchTrace {
        jobs: vec![
            bj(0, 0, 2, 20, None),
            bj(1, 1, 1, 20, Some(2)),
            bj(2, 5, 4, 2, None),
            bj(3, 10, 1, 2, None),
            bj(4, 15, 2, 5, Some(400)),
            bj(5, 30, 1, 1, None),
            bj(6, 50, 1, 3, None),
            bj(7, 70, 2, 1, None),
        ],
    }
}

/// Drain node 3 early and lift it late; crash node 1 under job 0 and
/// bring it back ten ms later.
fn churn() -> FaultPlan {
    FaultPlan::default()
        .with_seed(5)
        .drain(3, ms(WARMUP_MS + 20))
        .crash(1, ms(WARMUP_MS + 60))
        .restart(1, ms(WARMUP_MS + 70))
        .restart(3, ms(WARMUP_MS + 120))
}

fn policies() -> Vec<Box<dyn AllocPolicy>> {
    vec![
        Box::new(Fcfs),
        Box::new(EasyBackfill::new()),
        Box::new(ConservativeBackfill::new()),
        Box::new(FairShare::new()),
        Box::new(MultiQueue::default()),
        Box::new(Oversubscribed),
        Box::new(Dfrs::new(SimDuration::from_millis(1), 7)),
    ]
}

fn assert_clean(report: &BatchReport, jobs: usize, limit: u32) {
    let name = report.policy;
    assert_eq!(report.outcomes.len(), jobs, "{name}: every job ends");
    assert_eq!(report.jobs_lost, 0, "{name}");
    assert_eq!(report.occupancy_violations, 0, "{name}");
    assert!(report.max_node_occupancy <= limit, "{name}");
    assert!(report.max_node_occupancy >= 1, "{name}");
}

#[test]
fn every_policy_keeps_the_view_exact_through_faults_and_kills() {
    let trace = trace();
    for mut policy in policies() {
        let limit = policy.occupancy_limit();
        let mut cluster = build_cluster(61, churn());
        let report = BatchRun::new(&trace)
            .walltime(1.0)
            .run(&mut cluster, policy.as_mut())
            .unwrap_or_else(|o| panic!("{}: {}", policy.name(), o.label()));
        assert_clean(&report, trace.jobs.len(), limit);
        let name = report.policy;
        assert!(report.requeues >= 1, "{name}: the crash requeues job 0");
        assert!(report.jobs_killed >= 1, "{name}: job 1 hits its walltime");
        assert!(cluster.crashes() >= 1, "{name}");
        // The run leaves no occupancy behind.
        for n in 0..NODES {
            assert_eq!(cluster.active_jobs_on(n), 0, "{name}: node {n}");
        }
    }
}

#[test]
fn coordinated_runs_keep_the_view_exact() {
    // Coordinated launches go through the runtime, and DFRS's share
    // updates reach the nodes (kernel slicing touches them; the
    // user-space arbiter writes shared state only). No crash here: a
    // restarted node comes back without its arbiter daemon.
    let trace = trace();
    let drain_only = || {
        FaultPlan::default()
            .with_seed(5)
            .drain(3, ms(WARMUP_MS + 20))
            .restart(3, ms(WARMUP_MS + 120))
    };
    for user_space in [false, true] {
        for mut policy in policies() {
            let limit = policy.occupancy_limit();
            let mut cluster = build_cluster(67, drain_only());
            let mut coord = if user_space {
                CoordRuntime::user_space(GANG_EPOCH)
            } else {
                CoordRuntime::kernel_weighted(GANG_EPOCH)
            };
            coord.install(&mut cluster);
            let report = BatchRun::new(&trace)
                .walltime(1.0)
                .run_coordinated(&mut cluster, policy.as_mut(), &mut coord)
                .unwrap_or_else(|o| panic!("{}: {}", policy.name(), o.label()));
            assert_clean(&report, trace.jobs.len(), limit);
            assert!(report.jobs_killed >= 1, "{}", report.policy);
        }
    }
}

#[test]
fn churned_runs_replay_bit_for_bit() {
    // The view is state carried across decision points; a second run
    // from the same seed must still see exactly the same decisions.
    let trace = trace();
    let run = || {
        let mut cluster = build_cluster(71, churn());
        BatchRun::new(&trace)
            .walltime(1.0)
            .run(&mut cluster, &mut EasyBackfill::new())
            .expect("completes")
    };
    assert_eq!(run(), run());
}
