//! Metric names, units and the result line.

use crate::spans::Tracer;
use crate::workloads::Rep;
use std::collections::BTreeMap;

/// End-to-end metrics, from the untraced repetitions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_s_per_wall_s", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("sim.makespan_s", "s"),
    ("sim.mean_bounded_slowdown", "ratio"),
];

/// Per-layer metrics, from the traced repetitions. A layer a workload
/// does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("process.user_s", "s"),
    ("process.sys_s", "s"),
    ("kernel.build_s", "s"),
    ("kernel.run_s", "s"),
    ("kernel.events", "count"),
    ("kernel.events_per_run_s", "1/s"),
    ("kernel.ctx_switches", "count"),
    ("kernel.migrations", "count"),
    ("mpi.launch.calls", "count"),
    ("mpi.launch_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.launch_s", "s"),
    ("cluster.step_s", "s"),
    ("cluster.windows", "count"),
    ("cluster.window_us.p50", "us"),
    ("cluster.window_us.p99", "us"),
    ("cluster.active_nodes.mean", "count"),
    ("cluster.events_per_window.mean", "count"),
    ("cluster.next_event_time_us.mean", "us"),
    ("cluster.msgs", "count"),
    ("cluster.net_bytes", "B"),
    ("batch.run_s", "s"),
    ("batch.self_s", "s"),
    ("batch.select.calls", "count"),
    ("batch.select_s", "s"),
    ("batch.select.queue_len.mean", "count"),
    ("batch.select.hit_frac", "frac"),
    ("batch.share_update.calls", "count"),
    ("batch.share_update_s", "s"),
    ("batch.max_queue_depth", "count"),
    ("batch.jobs_completed", "count"),
    ("coord.launch.calls", "count"),
    ("coord.launch_s", "s"),
    ("coord.set_share.calls", "count"),
    ("coord.set_share_s", "s"),
    ("coord.leases", "count"),
    ("coord.grants", "count"),
    ("coord.blocks", "count"),
    ("sim.hpl_variation_pct", "%"),
    ("trace.covered_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v`; 0 when empty.
pub fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = v.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Fill the span-derived per-layer figures of one traced repetition.
pub fn span_layers(tr: &Tracer, layers: &mut BTreeMap<&'static str, f64>) {
    let s = tr.summary();
    let agg = |n: &str| s.get(n).copied().unwrap_or_default();
    let calls = |n: &str| agg(n).calls as f64;
    let total = |n: &str| agg(n).total_s;
    let windows = calls("cluster.step");
    let selects = calls("batch.select");
    let run_s = total("kernel.run");
    let measure = agg("rep.measure");
    let mut step_us = tr.durations_us("cluster.step");
    for (name, v) in [
        ("kernel.build_s", total("kernel.build")),
        ("kernel.run_s", run_s),
        (
            "kernel.events_per_run_s",
            ratio(tr.counter("kernel.run_events") as f64, run_s),
        ),
        ("mpi.launch.calls", calls("mpi.launch")),
        ("mpi.launch_s", total("mpi.launch")),
        ("cluster.build_s", total("cluster.build")),
        ("cluster.launch_s", total("cluster.launch")),
        ("cluster.step_s", total("cluster.step")),
        ("cluster.windows", windows),
        ("cluster.window_us.p50", percentile(&mut step_us, 0.50)),
        ("cluster.window_us.p99", percentile(&mut step_us, 0.99)),
        (
            "cluster.active_nodes.mean",
            ratio(tr.counter("cluster.active_nodes") as f64, windows),
        ),
        (
            "cluster.events_per_window.mean",
            ratio(tr.counter("cluster.window_events") as f64, windows),
        ),
        (
            "cluster.next_event_time_us.mean",
            ratio(
                total("cluster.next_event_time") * 1e6,
                calls("cluster.next_event_time"),
            ),
        ),
        ("batch.run_s", total("batch.run")),
        ("batch.self_s", agg("batch.run").self_s),
        ("batch.select.calls", selects),
        ("batch.select_s", total("batch.select")),
        (
            "batch.select.queue_len.mean",
            ratio(tr.counter("batch.select.queue_len") as f64, selects),
        ),
        (
            "batch.select.hit_frac",
            ratio(tr.counter("batch.select.hits") as f64, selects),
        ),
        ("batch.share_update.calls", calls("batch.share_update")),
        ("batch.share_update_s", total("batch.share_update")),
        ("coord.launch.calls", calls("coord.launch")),
        ("coord.launch_s", total("coord.launch")),
        ("coord.set_share.calls", calls("coord.set_share")),
        ("coord.set_share_s", total("coord.set_share")),
        (
            "trace.covered_frac",
            1.0 - ratio(measure.self_s, measure.total_s),
        ),
    ] {
        layers.insert(name, v);
    }
}

/// The metric values of one invocation: end-to-end figures from the
/// untraced repetitions, or per-layer figures from the traced ones.
pub fn metrics(
    plain: &[Rep],
    traced: &[Rep],
    peak_rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    if traced.is_empty() {
        let attempted: u64 = plain.iter().map(|r| r.attempted).sum();
        let failed: u64 = plain.iter().map(|r| r.failed).sum();
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "wall_s" => median(plain.iter().map(|r| r.ref_wall_s)),
                    "sim_s_per_wall_s" => {
                        median(plain.iter().map(|r| ratio(r.node_secs, r.ref_wall_s)))
                    }
                    "setup_s" => median(plain.iter().map(|r| r.setup_s)),
                    "peak_rss_mb" => peak_rss_mb,
                    "ok_frac" => 1.0 - ratio(failed as f64, attempted as f64),
                    "sim.makespan_s" => plain[0].makespan_s,
                    "sim.mean_bounded_slowdown" => plain[0].mean_bounded_slowdown,
                    other => unreachable!("no rule for end-to-end metric {other}"),
                };
                (name, unit, v)
            })
            .collect()
    } else {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.overhead_frac" => {
                        median(traced.iter().map(|r| r.wall_s))
                            / median(plain.iter().map(|r| r.wall_s))
                            - 1.0
                    }
                    "sim.hpl_variation_pct" => traced[0].hpl_variation_pct,
                    _ => median(
                        traced
                            .iter()
                            .map(|r| r.layers.get(name).copied().unwrap_or(0.0)),
                    ),
                };
                (name, unit, v)
            })
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Values print with all their digits; a value that is
/// not finite prints as 0 and marks the result incorrect.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let finite = metrics.iter().all(|m| m.2.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        assert_eq!(percentile(&mut v, 0.99), 5.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median([]), 0.0);
    }
}
