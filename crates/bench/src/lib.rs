//! Shared benchmark scenarios for the `streach` evaluation.
//!
//! The paper's evaluation (Chapter 4) runs every experiment against one
//! Shenzhen dataset; this crate provides the equivalent reproducible setup —
//! a synthetic city plus a simulated fleet plus pre-built indexes — at three
//! sizes:
//!
//! * [`ScenarioSize::Smoke`] — seconds to build, used by unit/CI tests and
//!   Criterion micro-benchmarks,
//! * [`ScenarioSize::Quick`] — a minute-scale configuration for `repro
//!   --quick`,
//! * [`ScenarioSize::Standard`] — the full-size configuration behind
//!   `repro all` (without `--quick`).
//!
//! The engine's benchmark of record is the separate `benchmark/` package;
//! this crate reproduces the paper's figures and tracks per-figure timings.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod scenario;
pub mod timing;

pub use report::Table;
pub use scenario::{Scenario, ScenarioSize};
pub use timing::{measure, Measurement};
