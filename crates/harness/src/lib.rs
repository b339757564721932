//! `harness` — the experiment harness regenerating every table and
//! figure of the paper's evaluation.
//!
//! [`EXPERIMENTS`] is the index: one row per artifact (T1, E1–E7 and
//! the ablations A1, A2) with its id, a small and a paper-scale
//! parameter set and the check of the shape the paper reports. Each
//! row calls one pure experiment function of this crate, which returns
//! a printable [`Table`] plus the raw numbers the check consumes.
//!
//! The `experiments` binary prints the paper-scale report and fails if
//! a shape does not hold; `tests/experiment_shapes.rs` walks the table
//! at the small scale; the `paper_experiments` bench target of the
//! `bench` crate prints, checks and times it.

#![warn(missing_docs)]

mod experiments;
pub mod pstack;
mod report;
mod suite;

pub use experiments::{
    movie_attribute_sets, WideFsm16, WideFsm2, WideFsm32, WideFsm4, WideFsm64, WideFsm8,
};
pub use report::Table;
pub use suite::{experiment, Experiment, Outcome, Scale, EXPERIMENTS};
