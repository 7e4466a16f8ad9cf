//! Wrappers the benchmark hands to the batch engine in place of the
//! real policy and coordinator. Each forwards every trait method to the
//! wrapped value unchanged, so a wrapped run simulates exactly what an
//! unwrapped one does. The traced run's wrappers add a span around each
//! call and a few counters taken at the same boundary; the untraced
//! run's policy wrapper only gives the host-speed meter a place to cut
//! the engine run into segments.

use crate::spans::{traced, SharedTracer};
use hpl_batch::{AllocPolicy, Allocation, ClusterView, QueuedJob};
use hpl_cluster::{Cluster, ClusterJobHandle, JobCoordinator, Placement};
use hpl_mpi::{JobSpec, SchedMode};

/// An [`AllocPolicy`] that times `select` and `share_update`. It
/// borrows the policy, so the caller can read the policy's audit
/// counters after the run.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn AllocPolicy,
    tracer: SharedTracer,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn AllocPolicy, tracer: SharedTracer) -> Self {
        TimedPolicy { inner, tracer }
    }
}

impl AllocPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn occupancy_limit(&self) -> u32 {
        self.inner.occupancy_limit()
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        let pick = traced(&self.tracer, "batch.select", || {
            self.inner.select(queue, view)
        });
        let mut tr = self.tracer.borrow_mut();
        tr.count("batch.select.queue_len", queue.len() as u64);
        tr.count("batch.select.hits", u64::from(pick.is_some()));
        pick
    }

    fn share_update(&mut self, view: &ClusterView) -> Vec<(usize, u32, u32)> {
        traced(&self.tracer, "batch.share_update", || {
            self.inner.share_update(view)
        })
    }
}

/// An [`AllocPolicy`] that ticks the host-speed meter
/// ([`crate::meter::tick`]) once per engine decision point.
pub struct MeteredPolicy<'a> {
    inner: &'a mut dyn AllocPolicy,
}

impl<'a> MeteredPolicy<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn AllocPolicy) -> Self {
        MeteredPolicy { inner }
    }
}

impl AllocPolicy for MeteredPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn occupancy_limit(&self) -> u32 {
        self.inner.occupancy_limit()
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        self.inner.select(queue, view)
    }

    /// Called once per decision point, queue empty or not.
    fn share_update(&mut self, view: &ClusterView) -> Vec<(usize, u32, u32)> {
        crate::meter::tick();
        self.inner.share_update(view)
    }
}

/// A [`JobCoordinator`] that times `launch` and `set_share`. It
/// borrows the coordinator, so the caller can read its counters after
/// the run.
pub struct TimedCoord<'a> {
    inner: &'a mut dyn JobCoordinator,
    tracer: SharedTracer,
}

impl<'a> TimedCoord<'a> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn JobCoordinator, tracer: SharedTracer) -> Self {
        TimedCoord { inner, tracer }
    }
}

impl JobCoordinator for TimedCoord<'_> {
    fn launch(
        &mut self,
        cluster: &mut Cluster,
        job: &JobSpec,
        mode: SchedMode,
        placement: Placement,
    ) -> ClusterJobHandle {
        traced(&self.tracer, "coord.launch", || {
            self.inner.launch(cluster, job, mode, placement)
        })
    }

    fn set_share(&mut self, cluster: &mut Cluster, node: usize, gang: u64, share_milli: u32) {
        traced(&self.tracer, "coord.set_share", || {
            self.inner.set_share(cluster, node, gang, share_milli)
        })
    }
}
