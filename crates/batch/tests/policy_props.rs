//! Property tests for the weighted DFRS share split — conservation,
//! weight monotonicity and the uniform-weights ⇒ even-split identity
//! must hold for *any* cluster view, weight table, seed and epoch — and
//! a seeded differential of EASY's `select` against a reference that
//! recomputes every node set from scratch for every candidate.

use hpl_batch::{
    AllocPolicy, Allocation, BackfillDecision, ClusterView, Dfrs, EasyBackfill, QueuedJob,
    RunningJob,
};
use hpl_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random small cluster view: up to 5 nodes, up to 6 running jobs
/// each placed on a random non-empty node subset, plus a weight table
/// covering a random subset of the jobs.
#[derive(Debug, Clone)]
struct ViewGen {
    nodes: usize,
    jobs: Vec<(u32, Vec<usize>, Option<u32>)>,
}

fn view_strategy() -> impl Strategy<Value = ViewGen> {
    (
        1usize..5,
        proptest::collection::vec((0u32..50, 1u64..31, proptest::option::of(1u32..9)), 1..6),
    )
        .prop_map(|(nodes, raw)| {
            let mut seen = BTreeMap::new();
            for (id, mask, weight) in raw {
                // Place on the node subset selected by the mask bits.
                let placement: Vec<usize> = (0..nodes).filter(|n| mask & (1 << n) != 0).collect();
                if placement.is_empty() {
                    continue;
                }
                seen.entry(id).or_insert((placement, weight));
            }
            ViewGen {
                nodes,
                jobs: seen.into_iter().map(|(id, (p, w))| (id, p, w)).collect(),
            }
        })
}

fn build(g: &ViewGen) -> (ClusterView, BTreeMap<u32, u32>) {
    let mut occupancy = vec![0u32; g.nodes];
    let mut running = Vec::new();
    let mut weights = BTreeMap::new();
    for (id, placement, weight) in &g.jobs {
        for &n in placement {
            occupancy[n] += 1;
        }
        running.push(RunningJob {
            id: *id,
            placement: placement.clone(),
            est_end: SimTime::from_nanos(1),
        });
        if let Some(w) = weight {
            weights.insert(*id, *w);
        }
    }
    let view = ClusterView {
        now: SimTime::from_nanos(0),
        occupancy,
        running,
        down: vec![false; g.nodes],
    };
    (view, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every occupied node's shares sum to exactly 1000 milli, idle
    /// nodes promise nothing, and every resident job gets a non-zero
    /// share — for any weights, seed and epoch.
    #[test]
    fn weighted_shares_conserve_node_capacity(
        g in view_strategy(),
        seed in 0u64..1_000,
        epoch in 0u64..1_000,
    ) {
        let (view, weights) = build(&g);
        let shares = Dfrs::shares_for_weighted(seed, epoch, &view, &weights);
        let mut per_node: BTreeMap<usize, u32> = BTreeMap::new();
        for &(n, job, s) in &shares {
            prop_assert!(s > 0, "job {} on node {} got a zero share", job, n);
            *per_node.entry(n).or_insert(0) += s;
        }
        for n in 0..view.occupancy.len() {
            if view.occupancy[n] > 0 {
                prop_assert_eq!(per_node.get(&n), Some(&1000), "node {}", n);
            } else {
                prop_assert_eq!(per_node.get(&n), None, "idle node {}", n);
            }
        }
    }

    /// On any single node, a higher-weight job never receives a
    /// smaller share than a lower-weight one (beyond the one remainder
    /// milli the rotation may hand the lighter job).
    #[test]
    fn weighted_shares_monotone_in_weight(
        g in view_strategy(),
        seed in 0u64..1_000,
        epoch in 0u64..1_000,
    ) {
        let (view, weights) = build(&g);
        let shares = Dfrs::shares_for_weighted(seed, epoch, &view, &weights);
        let w = |job: u32| weights.get(&job).copied().unwrap_or(1);
        for &(n1, j1, s1) in &shares {
            for &(n2, j2, s2) in &shares {
                if n1 == n2 && w(j1) >= w(j2) {
                    prop_assert!(
                        s1 + 1 >= s2,
                        "node {}: weight {} got {} but weight {} got {}",
                        n1, w(j1), s1, w(j2), s2
                    );
                }
            }
        }
    }

    /// A uniform weight table — whatever the common value — is
    /// bit-identical to the unweighted even split, remainder rotation
    /// included.
    #[test]
    fn uniform_weights_reproduce_the_even_split(
        g in view_strategy(),
        common in 1u32..9,
        seed in 0u64..1_000,
        epoch in 0u64..1_000,
    ) {
        let (view, _) = build(&g);
        let uniform: BTreeMap<u32, u32> =
            g.jobs.iter().map(|&(id, _, _)| (id, common)).collect();
        prop_assert_eq!(
            Dfrs::shares_for_weighted(seed, epoch, &view, &uniform),
            Dfrs::shares_for(seed, epoch, &view)
        );
    }
}

/// Free nodes (unoccupied and up), ascending.
fn free_nodes(view: &ClusterView) -> Vec<usize> {
    (0..view.occupancy.len())
        .filter(|&n| view.occupancy[n] < 1 && !view.down[n])
        .collect()
}

/// Reference reservation for the head: its node set and shadow time,
/// `None` when it fits now.
fn easy_reservation(head: &QueuedJob, view: &ClusterView) -> Option<(Vec<usize>, SimTime)> {
    let free = free_nodes(view);
    let need = head.nodes as usize;
    if free.len() >= need {
        return None;
    }
    let mut reserved = free;
    let mut running: Vec<&RunningJob> = view.running.iter().collect();
    running.sort_by_key(|r| (r.est_end, r.id));
    let mut shadow = view.now;
    for r in &running {
        for &n in &r.placement {
            if reserved.len() == need {
                break;
            }
            if !reserved.contains(&n) {
                reserved.push(n);
                shadow = r.est_end;
            }
        }
        if reserved.len() == need {
            break;
        }
    }
    if reserved.len() < need {
        shadow = SimTime::from_nanos(u64::MAX);
    }
    reserved.sort_unstable();
    Some((reserved, shadow))
}

/// Reference EASY decision: the free set is recomputed for the
/// reservation and the outside set for every candidate, exactly as
/// `EasyBackfill::select` did before it built each set once per call.
/// Returns the allocation and, for a backfill, the audit record.
fn easy_reference(
    queue: &[QueuedJob],
    view: &ClusterView,
) -> Option<(Allocation, Option<BackfillDecision>)> {
    let head = queue.first()?;
    let free = free_nodes(view);
    let Some((reserved, shadow)) = easy_reservation(head, view) else {
        let placement = free[..head.nodes as usize].to_vec();
        return Some((
            Allocation {
                queue_idx: 0,
                placement,
            },
            None,
        ));
    };
    for (qi, cand) in queue.iter().enumerate().skip(1) {
        let want = cand.nodes as usize;
        if want > free.len() {
            continue;
        }
        let est_end = view.now + cand.est_runtime;
        let placement: Vec<usize> = if est_end <= shadow {
            free[..want].to_vec()
        } else {
            let outside: Vec<usize> = free
                .iter()
                .copied()
                .filter(|n| !reserved.contains(n))
                .collect();
            if outside.len() < want {
                continue;
            }
            outside[..want].to_vec()
        };
        let d = BackfillDecision {
            job: cand.id,
            head: head.id,
            shadow,
            est_end,
            reserved: reserved.clone(),
            placement: placement.clone(),
        };
        return Some((
            Allocation {
                queue_idx: qi,
                placement,
            },
            Some(d),
        ));
    }
    None
}

/// A random EASY decision point: up to 12 nodes, each free, busy or
/// down (a drained node may still be busy); the busy nodes split into
/// running jobs with estimated ends around `now`; a queue of up to 8
/// jobs as wide as the whole cluster. Many down nodes make the head
/// unsatisfiable, which puts the shadow in the far future.
#[derive(Debug, Clone)]
struct EasyGen {
    /// Per node: (busy, down, running-job group).
    nodes: Vec<(bool, bool, u8)>,
    /// Per running-job group: estimated end offset from `now`, ns.
    ends: Vec<u64>,
    /// Queue: (width, estimated runtime ns).
    queue: Vec<(u32, u64)>,
}

fn easy_strategy() -> impl Strategy<Value = EasyGen> {
    (
        1usize..13,
        proptest::collection::vec((0u8..2, 0u32..4, 0u8..4), 12),
        proptest::collection::vec(0u64..40_000, 4),
        proptest::collection::vec((1u32..13, 1u64..60_000), 1..9),
    )
        .prop_map(|(n, nodes, ends, queue)| EasyGen {
            // Down with probability 1/4.
            nodes: nodes[..n]
                .iter()
                .map(|&(busy, d, g)| (busy == 1, d == 0, g))
                .collect(),
            ends,
            // Widths fold into 1..=n: jobs never outgrow the cluster.
            queue: queue
                .into_iter()
                .map(|(w, est)| (1 + (w - 1) % n as u32, est))
                .collect(),
        })
}

fn easy_case(g: &EasyGen) -> (Vec<QueuedJob>, ClusterView) {
    let now = SimTime::from_nanos(20_000);
    let mut groups: BTreeMap<u8, Vec<usize>> = BTreeMap::new();
    for (n, &(busy, _, group)) in g.nodes.iter().enumerate() {
        if busy {
            groups.entry(group).or_default().push(n);
        }
    }
    let running = groups
        .into_iter()
        .map(|(group, placement)| RunningJob {
            id: 100 + u32::from(group),
            placement,
            // Ends may lie before `now` (an overrun estimate).
            est_end: SimTime::from_nanos(g.ends[usize::from(group)]),
        })
        .collect();
    let view = ClusterView {
        now,
        occupancy: g
            .nodes
            .iter()
            .map(|&(busy, _, _)| u32::from(busy))
            .collect(),
        running,
        down: g.nodes.iter().map(|&(_, down, _)| down).collect(),
    };
    let queue = g
        .queue
        .iter()
        .enumerate()
        .map(|(i, &(nodes, est))| QueuedJob {
            id: i as u32,
            nodes,
            submitted: SimTime::from_nanos(i as u64),
            est_runtime: SimDuration::from_nanos(est),
            user: 0,
            class: 0,
        })
        .collect();
    (queue, view)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `EasyBackfill::select` makes the reference's decision on every
    /// random view — the same job, the same placement — and audits a
    /// backfill with the same record; the head starting outright is not
    /// audited by either.
    #[test]
    fn easy_select_matches_the_reference(g in easy_strategy()) {
        let (queue, view) = easy_case(&g);
        let mut easy = EasyBackfill::new();
        let got = easy.select(&queue, &view);
        let audit: Vec<BackfillDecision> = easy.decisions().cloned().collect();
        match easy_reference(&queue, &view) {
            None => {
                prop_assert_eq!(got, None);
                prop_assert!(audit.is_empty());
            }
            Some((alloc, decision)) => {
                prop_assert_eq!(got, Some(alloc));
                prop_assert_eq!(audit, decision.into_iter().collect::<Vec<_>>());
            }
        }
        prop_assert_eq!(easy.reservation_violations(), 0);
    }
}

/// The differential's generator reaches every branch of the decision:
/// the head starting outright, a blocked queue, a backfill that ends
/// inside the shadow window, a backfill under a far-future shadow (too
/// few up nodes for the head), and a fitting candidate that outlives a
/// finite shadow and so needs nodes outside the reservation. That last
/// branch never admits: a blocked head's reservation holds every free
/// node, so the outside set is always empty.
#[test]
fn easy_differential_covers_every_branch() {
    let mut rng = proptest::TestRng::from_name("easy_differential_covers_every_branch");
    let strategy = easy_strategy();
    let (mut head, mut blocked, mut inside, mut far, mut long) = (0, 0, 0, 0, 0);
    for _ in 0..512 {
        let (queue, view) = easy_case(&strategy.gen_value(&mut rng));
        if let Some((reserved, shadow)) = easy_reservation(&queue[0], &view) {
            let free = free_nodes(&view);
            assert!(free.iter().all(|n| reserved.contains(n)));
            if queue[1..].iter().any(|c| {
                c.nodes as usize <= free.len()
                    && view.now + c.est_runtime > shadow
                    && shadow < SimTime::from_nanos(u64::MAX)
            }) {
                long += 1;
            }
        }
        match easy_reference(&queue, &view) {
            None => blocked += 1,
            Some((_, None)) => head += 1,
            Some((_, Some(d))) => {
                assert!(d.est_end <= d.shadow, "outside backfill admitted: {d:?}");
                inside += 1;
                if d.shadow == SimTime::from_nanos(u64::MAX) {
                    far += 1;
                }
            }
        }
    }
    for (branch, hits) in [
        ("head starts", head),
        ("blocked", blocked),
        ("backfill inside the shadow", inside),
        ("far-future shadow", far),
        ("candidate outliving the shadow", long),
    ] {
        assert!(hits > 0, "no case reached: {branch}");
    }
}
