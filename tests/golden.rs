//! Golden outputs: exact results pinned from the simulator as it stood
//! before the kernel hot path was optimised (one `exp` per Newton step,
//! memoised cache decay factors, flag and sibling masks, in-place tick
//! re-arm, indexed network blocks, targeted sync teardown).
//!
//! The fast-vs-reference differentials in `determinism.rs` run the
//! same execution-speed model on both event loops, so a change to that
//! model shows up on both sides and passes them. These tests compare
//! against fixed numbers instead: any change that moves a single bit of
//! an execution time, a scheduler-state fingerprint or an event count
//! fails here. A change that is *meant* to alter the model must update
//! the constants and say why.

use hpl::prelude::*;

/// Event budget per run: two orders of magnitude above what any pinned
/// run uses, so a change that stalls a run fails fast instead of
/// spinning.
const EVENT_BUDGET: u64 = 1_000_000;

/// What a single-node NAS run pins: execution time bits, post-run
/// state fingerprint, events processed.
type NodeGolden = (u64, u64, u64);

/// One repetition of `is.A.8` after a 400 ms warm-up, built exactly as
/// the experiment harness builds its nodes for each kernel flavour.
fn nas_run(kc: KernelConfig, hpc_class: bool, mode: SchedMode, seed: u64) -> NodeGolden {
    let mut builder = NodeBuilder::new(Topology::power6_js22())
        .with_config(kc)
        .with_noise(NoiseProfile::standard(8))
        .with_seed(seed);
    if hpc_class {
        builder = builder.with_hpc_class(Box::new(HplClass::new()));
    }
    let mut node = builder.build();
    node.run_for(SimDuration::from_millis(400));
    let job = nas_job(NasBenchmark::Is, NasClass::A, 8);
    let handle = launch(&mut node, &job, mode);
    let exec = handle.run_to_completion(&mut node, EVENT_BUDGET);
    (
        exec.as_secs_f64().to_bits(),
        node.state_fingerprint(),
        node.events_processed(),
    )
}

#[test]
fn nas_standard_linux_is_pinned() {
    let got = nas_run(KernelConfig::default(), false, SchedMode::Cfs, 0x5EED);
    assert_eq!(got, (4604439175251246397, 13601771543977241347, 15364));
}

#[test]
fn nas_hpl_is_pinned() {
    let got = nas_run(KernelConfig::hpl(), true, SchedMode::Hpc, 0x5EED);
    assert_eq!(got, (4600055105346333967, 10637728904140414221, 10453));
}

#[test]
fn nas_hpl_tickless_is_pinned() {
    let mut kc = KernelConfig::hpl();
    kc.tickless_single_hpc = true;
    let got = nas_run(kc, true, SchedMode::Hpc, 0x5EED);
    assert_eq!(got, (4599929805368838934, 18383415262953126949, 9485));
}

#[test]
fn four_node_cluster_is_pinned() {
    let nodes = 4u32;
    let seed = 0x5EED;
    let job = JobSpec::new(
        nodes * 8,
        JobSpec::repeat(
            3,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(3),
                },
                MpiOp::Allreduce { bytes: 256 },
                MpiOp::NeighborExchange { bytes: 4096 },
            ],
        ),
    )
    .with_nodes(nodes);
    let mut cluster = Cluster::builder()
        .nodes_with(nodes as usize, move |i| {
            NodeBuilder::new(Topology::power6_js22())
                .with_config(KernelConfig::hpl())
                .with_noise(NoiseProfile::standard(8))
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes as usize, NetConfig::default()))
        .build();
    for i in 0..nodes as usize {
        cluster.node_mut(i).run_for(SimDuration::from_millis(300));
    }
    let handle = cluster.launch(&job, SchedMode::Hpc, Placement::All);
    let exec = cluster.run_to_completion(&handle, EVENT_BUDGET);
    let events: u64 = (0..nodes as usize)
        .map(|i| cluster.node(i).events_processed())
        .sum();
    let got = (
        exec.as_secs_f64().to_bits(),
        cluster.state_fingerprint(),
        events,
    );
    assert_eq!(got, (4587373543364899111, 15795620687958166749, 15019));
}
