//! The repository's benchmark: four real workloads measured end to end,
//! with per-layer attribution taken from outside the program (spans and
//! probes around calls into the library's public functions). See
//! `README.md` in this directory and `BENCHMARK.json` at the repository
//! root.

pub mod cli;
pub mod compare;
pub mod host;
pub mod machine;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
