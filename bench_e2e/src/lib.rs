//! `bench_e2e`: the wall-clock, layer-attributed benchmark of the real
//! FedOQ serving stack. See `README.md` in this directory.

pub mod drive;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spec;
pub mod stack;
pub mod trace;
pub mod workload;
