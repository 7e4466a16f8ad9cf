//! The lockstep driver's incremental state — the per-node live-job
//! index, the cached next-event array and the pending-routing set —
//! stays equal to the reference scans through launch, exit, cancel,
//! drain, crash and restart ([`Cluster::check_indexes`] after every
//! window).

use hpl_cluster::{Cluster, FaultPlan, Interconnect, NetConfig, Placement};
use hpl_core::HplClass;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_mpi::{JobSpec, MpiOp, SchedMode};
use hpl_sim::time::{SimDuration, SimTime};
use hpl_topology::Topology;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

fn job(nodes: u32, iters: u32, id_base: u64) -> JobSpec {
    JobSpec::new(
        nodes * 2,
        JobSpec::repeat(
            iters,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(1),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    )
    .with_nodes(nodes)
    .with_id_base(id_base)
}

fn build_cluster(nodes: usize, faults: FaultPlan) -> Cluster {
    Cluster::builder()
        .nodes_with(nodes, move |i| {
            NodeBuilder::new(Topology::smp(2))
                .with_config(KernelConfig::hpl())
                .with_seed(17 ^ ((i as u64) << 32))
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes, NetConfig::default()))
        .faults(faults)
        .build()
}

/// One window, then the full cross-check.
fn step_checked(cluster: &mut Cluster) -> bool {
    let more = cluster.step_window();
    if let Err(e) = cluster.check_indexes() {
        panic!("index mismatch after a window: {e}");
    }
    more
}

/// Occupancy of every node, by index and by scan (which must agree).
fn occupancy(cluster: &Cluster) -> Vec<usize> {
    (0..cluster.len())
        .map(|n| {
            let index = cluster.active_jobs_on(n);
            assert_eq!(index, cluster.active_jobs_on_scan(n), "node {n}");
            index
        })
        .collect()
}

#[test]
fn launch_exit_and_relaunch_keep_the_index_exact() {
    let mut cluster = build_cluster(3, FaultPlan::none());
    cluster.check_indexes().expect("fresh cluster");
    let a = cluster.launch(&job(2, 2, 10_000), SchedMode::Hpc, Placement::on(&[0, 1]));
    let b = cluster.launch(&job(2, 6, 20_000), SchedMode::Hpc, Placement::on(&[1, 2]));
    cluster.check_indexes().expect("after launches");
    assert_eq!(occupancy(&cluster), vec![1, 2, 1]);

    while !cluster.job_done(&a) {
        assert!(step_checked(&mut cluster));
    }
    assert_eq!(occupancy(&cluster), vec![0, 1, 1]);
    let a_end = cluster.job_end_time(&a).expect("done jobs have an end");
    assert!(cluster.job_exec_time(&a).is_some());

    // Relaunching on node 0 prunes the finished job from its list; the
    // finished job's answers do not change.
    let c = cluster.launch(&job(1, 2, 30_000), SchedMode::Hpc, Placement::on(&[0]));
    assert_eq!(occupancy(&cluster), vec![1, 1, 1]);
    assert!(cluster.job_done(&a));
    assert_eq!(cluster.job_end_time(&a), Some(a_end));

    while !(cluster.job_done(&b) && cluster.job_done(&c)) {
        assert!(step_checked(&mut cluster));
    }
    assert_eq!(occupancy(&cluster), vec![0, 0, 0]);
    assert_eq!(cluster.jobs_launched(), 3);
}

#[test]
fn cancel_releases_occupancy_and_the_index_follows() {
    let mut cluster = build_cluster(2, FaultPlan::none());
    let h = cluster.launch(&job(2, 50, 10_000), SchedMode::Hpc, Placement::All);
    for _ in 0..200 {
        assert!(step_checked(&mut cluster));
    }
    assert_eq!(occupancy(&cluster), vec![1, 1]);
    assert_eq!(cluster.cancel_job(&h), 2);
    // The kill is visible before the next window, and the killed nodes
    // are re-read then.
    assert_eq!(occupancy(&cluster), vec![0, 0]);
    assert!(cluster.job_done(&h));
    for _ in 0..50 {
        step_checked(&mut cluster);
    }
    let next = cluster.launch(&job(2, 2, 20_000), SchedMode::Hpc, Placement::All);
    assert_eq!(occupancy(&cluster), vec![1, 1]);
    while !cluster.job_done(&next) {
        assert!(step_checked(&mut cluster));
    }
}

#[test]
fn drain_crash_and_restart_keep_the_index_exact() {
    let plan = FaultPlan::default()
        .with_seed(5)
        .drain(0, ms(1))
        .crash(2, ms(4))
        .restart(2, ms(12))
        .restart(0, ms(20));
    let mut cluster = build_cluster(3, plan);
    let doomed = cluster.launch(&job(2, 40, 10_000), SchedMode::Hpc, Placement::on(&[1, 2]));
    let local = cluster.launch(&job(1, 40, 20_000), SchedMode::Hpc, Placement::on(&[0]));
    assert_eq!(occupancy(&cluster), vec![1, 1, 1]);

    // Drain keeps the running job; the crash fails the 2-node job and
    // releases both of its nodes at once.
    while !cluster.node_down(2) {
        assert!(step_checked(&mut cluster));
    }
    assert!(cluster.node_drained(0));
    assert!(cluster.job_failed(&doomed));
    assert_eq!(occupancy(&cluster), vec![1, 0, 0]);
    assert_eq!(
        cluster.next_event_time(),
        cluster.nodes()[..2]
            .iter()
            .filter_map(|n| n.next_event_time())
            .min(),
        "a down node's frozen queue is out of the minimum"
    );

    // Restart brings node 2 back empty; a new job there is indexed on
    // the new incarnation.
    while cluster.node_down(2) {
        assert!(step_checked(&mut cluster));
    }
    assert_eq!(occupancy(&cluster), vec![1, 0, 0]);
    let fresh = cluster.launch(&job(2, 2, 30_000), SchedMode::Hpc, Placement::on(&[1, 2]));
    assert_eq!(occupancy(&cluster), vec![1, 1, 1]);
    while !(cluster.job_done(&fresh) && cluster.job_done(&local)) {
        assert!(step_checked(&mut cluster));
    }
    assert!(
        !cluster.node_drained(0),
        "restart of an up node lifts its drain"
    );
    assert_eq!(occupancy(&cluster), vec![0, 0, 0]);
    assert!(!cluster.job_done(&doomed));
}

#[test]
fn a_tree_that_exited_before_its_node_crashed_stays_exited() {
    // Node 1's tree is a 1-node job that ends long before node 0's; a
    // second 2-node job keeps running. Crash and restart node 1 after
    // its short job exits: the short job is not failed, stays done, and
    // keeps its end time, read from the stamps copied at the crash.
    let plan = FaultPlan::default()
        .with_seed(5)
        .crash(1, ms(60))
        .restart(1, ms(61));
    let mut cluster = build_cluster(2, plan);
    let short = cluster.launch(&job(1, 1, 10_000), SchedMode::Hpc, Placement::on(&[1]));
    let long = cluster.launch(&job(1, 80, 20_000), SchedMode::Hpc, Placement::on(&[0]));
    while !cluster.job_done(&short) {
        assert!(step_checked(&mut cluster));
    }
    let end = cluster.job_end_time(&short).expect("done");
    let exec = cluster.job_exec_time(&short).expect("done");
    assert!(end < ms(60), "the short job ends before the crash");
    while cluster.crashes() == 0 || cluster.node_down(1) {
        assert!(step_checked(&mut cluster));
    }

    assert!(!cluster.job_failed(&short));
    assert!(cluster.job_done(&short));
    assert_eq!(cluster.job_end_time(&short), Some(end));
    assert_eq!(cluster.job_exec_time(&short), Some(exec));
    assert!(!cluster.job_done(&long));
    while !cluster.job_done(&long) {
        assert!(step_checked(&mut cluster));
    }
}
