//! `JobSpec::net_block` against the channel set it stands for.
//!
//! For a grid of job shapes and id bases, and every node, the block must
//! accept exactly the channels `chan_id(s, d)` with `s` on the node and
//! `d` elsewhere, over every id in the job's reserved range and two ids
//! either side of it. The job barrier, the per-node local barriers,
//! release channels and checkpoint barriers are never in a block.

use hpl_kernel::ChanId;
use hpl_mpi::{JobSpec, MpiOp};
use hpl_sim::SimDuration;
use std::collections::HashSet;

fn job(nprocs: u32, nodes: u32, id_base: u64, checkpoints: bool) -> JobSpec {
    let mut ops = vec![
        MpiOp::Compute {
            mean: SimDuration::from_micros(10),
        },
        MpiOp::Allreduce { bytes: 8 },
    ];
    if checkpoints {
        ops.push(MpiOp::Checkpoint {
            cost: SimDuration::from_micros(5),
        });
    }
    JobSpec::new(nprocs, ops)
        .with_nodes(nodes)
        .with_id_base(id_base)
}

/// The cross-node channels `node` sends on, listed pair by pair.
fn expected(job: &JobSpec, node: u32) -> HashSet<u64> {
    let mut out = HashSet::new();
    for s in job.ranks_on(node) {
        for d in 0..job.nprocs {
            if job.node_of(d) != node {
                out.insert(job.chan_id(s, d).0);
            }
        }
    }
    out
}

#[test]
fn block_accepts_exactly_the_cross_node_pairs() {
    let shapes = [
        (2, 2),
        (4, 2),
        (4, 4),
        (6, 3),
        (8, 2),
        (8, 4),
        (9, 3),
        (12, 4),
        (16, 8),
    ];
    for (nprocs, nodes) in shapes {
        for id_base in [0, 1, 2, 37, 1_000_000] {
            for checkpoints in [false, true] {
                let job = job(nprocs, nodes, id_base, checkpoints);
                let range = job.id_range();
                let lo = range.start().saturating_sub(2);
                let hi = range.end() + 2;
                for node in 0..nodes {
                    let ctx = format!("nprocs {nprocs} nodes {nodes} base {id_base} node {node}");
                    let block = job.net_block(node).expect("multi-node job has a block");
                    let want = expected(&job, node);
                    assert!(!want.is_empty(), "{ctx}: some channel leaves the node");
                    for id in lo..=hi {
                        assert_eq!(
                            block.contains(ChanId(id)),
                            want.contains(&id),
                            "{ctx}: id {id}"
                        );
                    }
                    let mut reserved = vec![job.barrier_id().0];
                    for n in 0..nodes {
                        reserved.push(job.local_barrier_id(n).0);
                        reserved.push(job.release_chan(n).0);
                        if checkpoints {
                            reserved.push(job.ckpt_barrier_id(n).0);
                        }
                    }
                    for id in reserved {
                        assert!(range.contains(&id), "{ctx}: id {id} is reserved");
                        assert!(!block.contains(ChanId(id)), "{ctx}: accepts id {id}");
                    }
                }
            }
        }
    }
}

#[test]
fn single_node_jobs_have_no_block() {
    assert_eq!(job(8, 1, 0, false).net_block(0), None);
    assert_eq!(job(1, 1, 40, true).net_block(0), None);
}

#[test]
fn a_blocks_channels_route_off_the_node() {
    // Every channel in a node's block is one the cluster can route: a
    // pairwise channel whose destination node is another node.
    let job = job(12, 4, 500, false);
    for node in 0..4 {
        let block = job.net_block(node).unwrap();
        for id in job.id_range() {
            if block.contains(ChanId(id)) {
                let dst = job.chan_dst_node(ChanId(id)).expect("a pairwise channel");
                assert_ne!(dst, node, "id {id}");
            }
        }
    }
}
