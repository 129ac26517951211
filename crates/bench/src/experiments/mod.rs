//! One module per paper artifact. Each `run()` returns a [`crate::Table`]
//! whose rows are what `EXPERIMENTS.md` records; helper functions expose the
//! underlying numbers to the tests.

pub mod ablations;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod plan_latency;
pub mod serve;
pub mod table1;
