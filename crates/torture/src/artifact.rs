//! Replayable failure artifacts.
//!
//! When a scenario fails, the torture harness writes two files into the
//! output directory (default `target/torture/`):
//!
//! * `failure-<seed>.torture` — the *shrunk* scenario in the
//!   [`Scenario::to_text`] format, preceded by `#`-comment lines
//!   recording the failures and the shrink trail. Replay it with
//!   `torture --replay <file>`.
//! * `failure-<seed>.trace.json` — a Chrome trace (load in
//!   `chrome://tracing` or Perfetto) of the shrunk scenario's reference
//!   run, so the scheduling decisions around the violation are visible.

use crate::runner::run_scenario;
use crate::scenario::Scenario;
use crate::shrink::Shrunk;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Paths written by [`write_failure`].
#[derive(Debug)]
pub struct ArtifactPaths {
    /// The replayable scenario file.
    pub scenario: PathBuf,
    /// The Chrome trace of the failing run.
    pub trace: Option<PathBuf>,
}

/// Serialise a shrunk failure to `<dir>/failure-<seed>.torture` (+
/// `.trace.json`) and return the paths.
pub fn write_failure(dir: &Path, shrunk: &Shrunk) -> std::io::Result<ArtifactPaths> {
    std::fs::create_dir_all(dir)?;
    let seed = shrunk.scenario.seed;
    let scn_path = dir.join(format!("failure-{seed:#x}.torture"));
    let mut f = std::fs::File::create(&scn_path)?;
    writeln!(f, "# hpl-torture failure artifact")?;
    writeln!(
        f,
        "# replay: cargo run --release --bin torture -- --replay {}",
        scn_path.display()
    )?;
    for msg in &shrunk.failures {
        writeln!(f, "# failure: {msg}")?;
    }
    for step in &shrunk.steps {
        writeln!(f, "# shrunk: {step}")?;
    }
    write!(f, "{}", shrunk.scenario.to_text())?;

    let trace_path = dir.join(format!("failure-{seed:#x}.trace.json"));
    // A scenario that panics leaves no trace to write.
    let report = std::panic::catch_unwind(|| run_scenario(&shrunk.scenario, false, true));
    let trace = match report.ok().and_then(|r| r.trace) {
        Some(json) => {
            std::fs::write(&trace_path, json)?;
            Some(trace_path)
        }
        None => None,
    };
    Ok(ArtifactPaths {
        scenario: scn_path,
        trace,
    })
}

/// Parse an artifact file back into a scenario (ignores `#` comments —
/// handled by [`Scenario::from_text`]).
pub fn read_artifact(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Scenario::from_text(&text)
}
