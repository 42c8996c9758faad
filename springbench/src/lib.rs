//! `springbench`: a steady-state, reference-checked end-to-end benchmark
//! of the shipped `spring serve` binary, with an in-process per-layer
//! replay for the CPU waterfall. See `README.md` for the workloads, the
//! metrics, and how to run it.

pub mod calib;
pub mod layers;
pub mod load;
pub mod procfs;
pub mod prom;
pub mod reference;
pub mod run;
pub mod server;
pub mod stats;
pub mod sys;
pub mod verify;
pub mod workload;
