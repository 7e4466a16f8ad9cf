//! Per-core cache-warmth model — the *indirect* cost of scheduling.
//!
//! The paper attributes two indirect overheads to the scheduler: "a
//! non-HPC process may evict some of the HPC task's cache lines, causing
//! extra misses when the HPC task restarts", and "when the OS moves a
//! task to another CPU, that task may lose its cache contents and cannot
//! run at full speed until the cache rewarms".
//!
//! Model: each physical core's cache holds a *warmth fraction*
//! `w ∈ [0, 1]` per task. While a task runs on the core its warmth rises
//! exponentially toward 1 with time constant `cache_warm_tau`; every
//! other task's footprint on that core decays with `cache_evict_tau`.
//! Execution speed scales as `cold + (1 − cold) · w`. On migration the
//! task keeps a `shared_cache_retention` fraction of its warmth if source
//! and destination share any cache level (e.g. SMT siblings on POWER6, or
//! cores under a shared L3 on the x86 preset) and loses everything
//! otherwise — the exact mitigation footnote 2 of the paper describes.
//!
//! The model is deliberately capacity-free: warmths of different tasks on
//! one core are independent except for eviction-by-running, which keeps
//! the bookkeeping O(tasks-touched-this-core) and is sufficient to
//! produce the performance asymmetries the paper measures. A core holds
//! a handful of footprints (pruned below `PRUNE_THRESHOLD`), so they
//! live in a small vector searched linearly rather than a hash map;
//! every update touches one entry on its own, so the entry order never
//! affects a result.

use crate::config::KernelConfig;
use crate::task::Pid;
use hpl_sim::SimDuration;
use hpl_topology::{CpuId, Topology};

/// Warmth below which a footprint entry is dropped.
const PRUNE_THRESHOLD: f64 = 1e-3;

/// Cache warmth state for every physical core.
#[derive(Debug)]
pub struct CacheModel {
    /// Per-core footprints: (task, warmth fraction), at most one entry
    /// per task.
    cores: Vec<Vec<(Pid, f64)>>,
}

impl CacheModel {
    /// Create the model for a machine.
    pub fn new(topo: &Topology) -> Self {
        CacheModel {
            cores: (0..topo.total_cores()).map(|_| Vec::new()).collect(),
        }
    }

    /// Current warmth of `pid` on the core of `cpu`.
    pub fn warmth(&self, topo: &Topology, cpu: CpuId, pid: Pid) -> f64 {
        Self::get(&self.cores[topo.core_of(cpu) as usize], pid)
    }

    fn get(core: &[(Pid, f64)], pid: Pid) -> f64 {
        core.iter()
            .find(|&&(owner, _)| owner == pid)
            .map_or(0.0, |&(_, w)| w)
    }

    /// Execution-speed factor from cache state for `pid` running on `cpu`.
    pub fn speed_factor(&self, cfg: &KernelConfig, topo: &Topology, cpu: CpuId, pid: Pid) -> f64 {
        let w = self.warmth(topo, cpu, pid);
        cfg.cache_cold_factor + (1.0 - cfg.cache_cold_factor) * w
    }

    /// Account `dt` of `pid` running on `cpu`: its warmth rises, every
    /// other footprint on the core decays.
    pub fn run_for(
        &mut self,
        cfg: &KernelConfig,
        topo: &Topology,
        cpu: CpuId,
        pid: Pid,
        dt: SimDuration,
    ) {
        if dt.is_zero() {
            return;
        }
        let dt_s = dt.as_secs_f64();
        let warm_rate = (-dt_s / cfg.cache_warm_tau.as_secs_f64()).exp();
        let evict_rate = (-dt_s / cfg.cache_evict_tau.as_secs_f64()).exp();
        self.run_for_rates(topo, cpu, pid, warm_rate, evict_rate);
    }

    /// [`Self::run_for`] of a non-zero `dt`, given its decay factors
    /// `warm_rate = exp(−dt/cache_warm_tau)` and
    /// `evict_rate = exp(−dt/cache_evict_tau)`, for a caller that
    /// already has them.
    pub fn run_for_rates(
        &mut self,
        topo: &Topology,
        cpu: CpuId,
        pid: Pid,
        warm_rate: f64,
        evict_rate: f64,
    ) {
        let core = topo.core_of(cpu) as usize;
        let entries = &mut self.cores[core];
        let mut found = false;
        for (owner, w) in entries.iter_mut() {
            if *owner == pid {
                *w = 1.0 - (1.0 - *w) * warm_rate;
                found = true;
            } else {
                *w *= evict_rate;
            }
        }
        if !found {
            entries.push((pid, 1.0 - warm_rate));
        }
        entries.retain(|&(_, w)| w > PRUNE_THRESHOLD);
    }

    /// Account a migration of `pid` from `from` to `to`.
    ///
    /// Within one core (SMT sibling move) the footprint is untouched.
    /// Across cores, the destination starts with `shared_cache_retention ×
    /// warmth` if the CPUs share a cache level, or 0 otherwise; the old
    /// footprint stays behind and decays naturally.
    pub fn migrate(
        &mut self,
        cfg: &KernelConfig,
        topo: &Topology,
        pid: Pid,
        from: CpuId,
        to: CpuId,
    ) {
        let from_core = topo.core_of(from) as usize;
        let to_core = topo.core_of(to) as usize;
        if from_core == to_core {
            return;
        }
        let old = Self::get(&self.cores[from_core], pid);
        let retained = match topo.shared_cache_level(from, to) {
            Some(_) => old * cfg.shared_cache_retention,
            None => 0.0,
        };
        // Whatever the task had built on the destination core previously
        // (e.g. ping-pong migrations) may still be partially there.
        let entries = &mut self.cores[to_core];
        let existing = Self::get(entries, pid);
        let new_w = retained.max(existing);
        entries.retain(|&(owner, _)| owner != pid);
        if new_w > PRUNE_THRESHOLD {
            entries.push((pid, new_w));
        }
    }

    /// Remove all footprints of a dead task.
    pub fn forget(&mut self, pid: Pid) {
        for core in &mut self.cores {
            core.retain(|&(owner, _)| owner != pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KernelConfig, Topology, CacheModel) {
        let topo = Topology::power6_js22();
        let model = CacheModel::new(&topo);
        (KernelConfig::default(), topo, model)
    }

    #[test]
    fn warmth_starts_cold() {
        let (cfg, topo, model) = setup();
        assert_eq!(model.warmth(&topo, CpuId(0), Pid(1)), 0.0);
        assert!(
            (model.speed_factor(&cfg, &topo, CpuId(0), Pid(1)) - cfg.cache_cold_factor).abs()
                < 1e-12
        );
    }

    #[test]
    fn running_warms_towards_one() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run_for(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(1));
        let w1 = model.warmth(&topo, CpuId(0), pid);
        assert!(w1 > 0.0 && w1 < 1.0);
        // After many time constants: essentially warm.
        model.run_for(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(100));
        let w2 = model.warmth(&topo, CpuId(0), pid);
        assert!(w2 > 0.999, "w2={w2}");
        assert!(model.speed_factor(&cfg, &topo, CpuId(0), pid) > 0.999);
    }

    #[test]
    fn warming_is_monotonic() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        let mut last = 0.0;
        for _ in 0..20 {
            model.run_for(&cfg, &topo, CpuId(0), pid, SimDuration::from_micros(500));
            let w = model.warmth(&topo, CpuId(0), pid);
            assert!(w >= last);
            last = w;
        }
    }

    #[test]
    fn other_task_evicts() {
        let (cfg, topo, mut model) = setup();
        let hpc = Pid(1);
        let daemon = Pid(2);
        model.run_for(&cfg, &topo, CpuId(0), hpc, SimDuration::from_millis(50));
        let before = model.warmth(&topo, CpuId(0), hpc);
        // Daemon runs 5ms on the same core.
        model.run_for(&cfg, &topo, CpuId(0), daemon, SimDuration::from_millis(5));
        let after = model.warmth(&topo, CpuId(0), hpc);
        assert!(
            after < before * 0.5,
            "eviction too weak: {before} -> {after}"
        );
    }

    #[test]
    fn smt_siblings_share_warmth() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run_for(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(50));
        // CPUs 0 and 1 are the same POWER6 core.
        assert!(model.warmth(&topo, CpuId(1), pid) > 0.99);
        // Migration between siblings keeps everything.
        model.migrate(&cfg, &topo, pid, CpuId(0), CpuId(1));
        assert!(model.warmth(&topo, CpuId(1), pid) > 0.99);
    }

    #[test]
    fn cross_core_migration_loses_everything_on_power6() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run_for(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(50));
        model.migrate(&cfg, &topo, pid, CpuId(0), CpuId(2));
        // No shared cache between POWER6 cores: cold on arrival.
        assert_eq!(model.warmth(&topo, CpuId(2), pid), 0.0);
        // Old footprint still present on the old core (would be warm if
        // the task ping-pongs straight back).
        assert!(model.warmth(&topo, CpuId(0), pid) > 0.99);
    }

    #[test]
    fn shared_l3_retains_warmth() {
        let topo = Topology::xeon_2s4c2t();
        let cfg = KernelConfig::default();
        let mut model = CacheModel::new(&topo);
        let pid = Pid(1);
        model.run_for(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(50));
        // cpu0 → cpu2: different core, same socket, shared L3.
        model.migrate(&cfg, &topo, pid, CpuId(0), CpuId(2));
        let w = model.warmth(&topo, CpuId(2), pid);
        assert!((w - cfg.shared_cache_retention).abs() < 0.01, "w={w}");
        // Cross-socket: nothing.
        model.migrate(&cfg, &topo, pid, CpuId(2), CpuId(8));
        assert_eq!(model.warmth(&topo, CpuId(8), pid), 0.0);
    }

    #[test]
    fn ping_pong_return_keeps_residual() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run_for(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(50));
        model.migrate(&cfg, &topo, pid, CpuId(0), CpuId(2));
        // Return immediately: the old footprint is still on core 0.
        model.migrate(&cfg, &topo, pid, CpuId(2), CpuId(0));
        assert!(model.warmth(&topo, CpuId(0), pid) > 0.99);
    }

    #[test]
    fn forget_clears_footprints() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run_for(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(10));
        model.forget(pid);
        assert_eq!(model.warmth(&topo, CpuId(0), pid), 0.0);
    }
}
