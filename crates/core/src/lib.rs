//! PipeLayer and ReGAN: ReRAM processing-in-memory accelerator models.
//!
//! This crate is the paper's primary contribution (§III): two accelerator
//! architectures built from ReRAM crossbar subarrays that support the
//! *complete* execution of deep learning — inference and training — in
//! memory.
//!
//! * [`subarray`] — the memory organization of Fig. 6 / Fig. 10: morphable
//!   (full-function) subarrays that flip between memory and compute modes,
//!   plain memory subarrays for intermediate results, buffer subarrays with
//!   private ports, and the per-bank control unit with its instruction set,
//! * [`mapping`] — the data input and kernel mapping schemes of Fig. 4:
//!   the naïve scheme, the balanced partitioned scheme, and weight
//!   replication with factor `X` for intra-layer parallelism,
//! * [`pipeline`] — the inter-layer training pipeline of Fig. 5, as both
//!   closed-form cycle counts and a cycle-stepped simulator that is checked
//!   against them,
//! * [`plan`] — the backend-neutral lowering IR and the crate's one pricing
//!   model: every network becomes one [`ExecutionPlan`] of per-layer
//!   mappings, MVM counts, buffer traffic and cycle/energy closed forms
//!   that the accelerator, chip, endurance, report and GPU cost models all
//!   consume, including the conversion of pipeline macro-cycles into
//!   wall-clock time and energy,
//! * [`verify`] — a static checker over lowered plans: conservation laws,
//!   feasibility (budgets, replication, queueing stability) and
//!   metamorphic monotonicity checks, reported as typed [`Violation`]s,
//! * [`regan`] — the GAN training pipeline of Fig. 8 with the spatial
//!   parallelism (SP) and computation sharing (CS) optimizations of Fig. 9,
//! * [`accelerator`] — end-to-end evaluation producing the speedup /
//!   energy-saving comparisons of Table I against the GPU baseline.
//!
//! # Example
//!
//! ```
//! use reram_core::accelerator::PipeLayerAccelerator;
//! use reram_core::AcceleratorConfig;
//! use reram_gpu::GpuModel;
//! use reram_nn::models;
//!
//! let net = models::lenet_spec();
//! let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
//! let report = accel.train_cost(&net, 32, 1024);
//! let gpu = GpuModel::gtx1080().training_cost(&net, 32).times(1024.0 / 32.0);
//! assert!(report.time_s.0 < gpu.time_s, "PIM must beat the GPU on training");
//! ```

#![warn(missing_docs)]
#![allow(
    clippy::needless_range_loop,
    reason = "outer-product and matrix-walk loops index several vectors by the same coordinate; explicit indices mirror the equations they implement"
)]

pub mod accelerator;
pub mod chip;
pub mod compiler;
pub mod endurance;
pub mod isa;
pub mod mapping;
pub mod pipeline;
pub mod plan;
pub mod regan;
pub mod report;
pub mod subarray;
pub mod verify;

mod config;

pub use accelerator::{AccelReport, PipeLayerAccelerator, ReGanAccelerator};
pub use chip::{BankShape, ChipPlan, ChipPlanError};
pub use compiler::{CompileError, CompiledNetwork, NetStage};
pub use config::AcceleratorConfig;
pub use endurance::{EnduranceClass, EnduranceReport};
pub use mapping::{LayerMapping, MappingError, MappingScheme, ReplicationPolicy};
pub use pipeline::{PipelineModel, PipelineTrace};
pub use plan::{ExecutionPlan, LayerPlan, PlanError};
pub use regan::{ReganOpt, ReganPipeline};
pub use report::{build_run_report, layer_reports};
pub use verify::{verify_lowering, verify_plan, verify_serve, ServeShape, Violation, ZooFinding};

/// The dimensioned quantities every cost in this crate is priced in.
pub use reram_crossbar::units;
