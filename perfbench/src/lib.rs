//! Host-time benchmark of the HPL scheduler simulator.
//!
//! Four workloads, each built from a seed, are timed end to end with
//! tracing off; a separate traced run times every call the benchmark
//! makes into a layer's public functions (kernel, mpi, cluster, batch,
//! coord) and reports per-layer figures. See `README.md` for why each
//! workload is there and which figures it should move.

pub mod host;
pub mod meter;
pub mod report;
pub mod spans;
pub mod workloads;
pub mod wrap;
