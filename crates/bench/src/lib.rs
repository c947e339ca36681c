#![warn(missing_docs)]

//! # trisolve-bench
//!
//! The experiment harness: one function per paper table/figure, shared by
//! the `fig*`/`table*` binaries, the calibration tests and the Criterion
//! benches. Every function returns plain data so callers can print, assert
//! or serialise it.

pub mod alloc;
pub mod experiments;
pub mod regress;
pub mod report;
pub mod service;
pub mod snapshot;

pub use experiments::*;
