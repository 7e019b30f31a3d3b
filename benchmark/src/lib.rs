//! A repeatable benchmark of linkcast's three-broker chain, measured from
//! outside through the crates' public API. See `benchmark/README.md` for
//! what each workload and metric is for and how the noise was removed.

pub mod gen;
pub mod inputs;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod rig;
pub mod run;
pub mod schedule;
pub mod selfcheck;
pub mod stats;
pub mod trace;
