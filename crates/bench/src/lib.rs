//! Experiment harness behind the `repro` binary: one module per paper
//! artifact (table / figure), each producing printable rows so the binary
//! and the tests report identical data.
//!
//! See `EXPERIMENTS.md` at the workspace root for the paper-vs-measured
//! record produced by `cargo run -p reram-bench --bin repro --release`.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::Table;
