//! A seeded benchmark of the served model checker and the paper
//! pipeline. `perfbench/run.sh` builds the `portnum-serve` binary and
//! this crate, then runs one workload; see `perfbench/README.md` for the
//! workloads, the metrics, and which layer metric moves which
//! end-to-end metric.

pub mod gen;
pub mod offline;
pub mod replay;
pub mod report;
pub mod runner;
pub mod trace;
pub mod wire;
