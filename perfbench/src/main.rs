//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]`
//!
//! Repeats the workload until `--seconds` have passed (at least once),
//! alternating an untraced and a traced repetition when `--trace 1`.
//! Prints a host line, then as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use perfbench::host;
use perfbench::report::{metrics, result_line};
use perfbench::spans::Tracer;
use perfbench::workloads::{run_rep, Scale, Workload};
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload node-nas|cluster-wide|batch-easy|batch-dfrs-coord \
                     --seed N --seconds S --trace 0|1 [--scale full|tiny]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    scale_name: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale_name = "full".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => scale_name = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let scale = match scale_name.as_str() {
        "full" => Scale::full(),
        "tiny" => Scale::tiny(),
        other => return Err(format!("unknown scale {other}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        scale_name,
    })
}

/// Where the traced run's spans are written: one file per workload,
/// overwritten by each traced invocation, under the cargo target
/// directory, which the repository ignores.
fn spans_path(w: Workload) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-spans")
        .join(format!("{}.tsv", w.name()))
}

fn main() {
    let a = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        plain.push(run_rep(a.workload, &a.scale, a.seed, None));
        if a.trace {
            traced.push(run_rep(
                a.workload,
                &a.scale,
                a.seed,
                Some(Tracer::shared()),
            ));
        }
        // Stop before a further repetition would run past the budget.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / plain.len() as f64 > a.seconds {
            break;
        }
    }

    // Every repetition of one seed, traced or not, must simulate the
    // same thing; a repetition that does not counts all its units as
    // failed.
    let digest = plain[0].digest;
    let reps = || plain.iter().chain(&traced);
    let attempted: u64 = reps().map(|r| r.attempted).sum();
    let failed: u64 = reps()
        .map(|r| {
            if r.digest == digest {
                r.failed
            } else {
                r.attempted
            }
        })
        .sum();
    let repeatable = reps().all(|r| r.digest == digest);

    if let Some(tr) = traced.last().and_then(|r| r.tracer.as_ref()) {
        let path = spans_path(a.workload);
        if let Err(e) = tr.write_tsv(&path) {
            eprintln!("warning: could not write spans to {}: {e}", path.display());
        }
    }
    let list = |f: fn(&perfbench::workloads::Rep) -> f64| {
        let v: Vec<String> = plain.iter().map(|r| format!("{:?}", f(r))).collect();
        v.join(", ")
    };
    println!(
        "{{\"host\": {{\"nproc\": {}, \"available_parallelism\": {}, \"seed\": {}, \"commit\": \"{}\"}}, \
         \"workload\": \"{}\", \"scale\": \"{}\", \"reps\": {}, \"traced_reps\": {}, \
         \"digest\": \"{digest:016x}\", \"repeatable\": {repeatable}, \"host_wall_s\": [{}], \
         \"ref_wall_s\": [{}]}}",
        host::nproc(),
        host::available_parallelism(),
        a.seed,
        host::git_commit(),
        a.workload.name(),
        a.scale_name,
        plain.len(),
        traced.len(),
        list(|r| r.wall_s),
        list(|r| r.ref_wall_s),
    );
    let m = metrics(&plain, &traced, host::peak_rss_mb());
    println!(
        "{}",
        result_line(repeatable && failed == 0, attempted, failed, &m)
    );
}
