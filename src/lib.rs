//! Umbrella crate for the ReRAM accelerator reproduction workspace.
//!
//! Re-exports the member crates so integration tests and examples can use a
//! single dependency. See `README.md` for the project overview and
//! `DESIGN.md` for the system inventory.

pub use reram_core as core;
pub use reram_crossbar as crossbar;
pub use reram_datasets as datasets;
pub use reram_gpu as gpu;
pub use reram_nn as nn;
pub use reram_tensor as tensor;
