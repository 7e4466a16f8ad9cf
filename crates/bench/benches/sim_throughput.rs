//! Simulator throughput: how many simulated seconds per wall second the
//! event loop sustains — the number that decides how expensive the full
//! 1000-repetition reproduction is.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::NodeBuilder;
use hpl_mpi::{launch, JobSpec, MpiOp, SchedMode};
use hpl_sim::SimDuration;
use hpl_topology::Topology;

fn bench_idle_node(c: &mut Criterion) {
    c.bench_function("node/idle+daemons 1 sim-second", |b| {
        b.iter(|| {
            let mut node = NodeBuilder::new(Topology::power6_js22())
                .with_noise(NoiseProfile::standard(8))
                .with_seed(1)
                .build();
            node.run_for(SimDuration::from_secs(1));
            black_box(node.now())
        })
    });
}

fn bench_busy_node(c: &mut Criterion) {
    let job = JobSpec::new(
        8,
        JobSpec::repeat(
            10,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(8),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    );
    c.bench_function("node/8-rank MPI job (~100 ms sim)", |b| {
        b.iter(|| {
            let mut node = NodeBuilder::new(Topology::power6_js22())
                .with_noise(NoiseProfile::standard(8))
                .with_seed(2)
                .build();
            node.run_for(SimDuration::from_millis(100));
            let handle = launch(&mut node, &job, SchedMode::Cfs);
            black_box(handle.run_to_completion(&mut node, 1_000_000_000))
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    use hpl_sim::{EventQueue, SimTime};
    c.bench_function("event-queue/push+pop 10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut acc = 0;
            while let Some((_, _, Some(v))) = q.pop() {
                acc += v;
            }
            black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_idle_node, bench_busy_node, bench_event_queue
}
criterion_main!(benches);
