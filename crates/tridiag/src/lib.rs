#![warn(missing_docs)]

//! # trisolve-tridiag
//!
//! Tridiagonal algebra substrate for the `trisolve` workspace: system
//! representations, classic CPU solution algorithms (Thomas, LU with partial
//! pivoting, cyclic reduction, parallel cyclic reduction and the hybrids
//! built from them), workload generators, and error norms.
//!
//! Everything in this crate is hardware-agnostic. The GPU-simulated solver in
//! `trisolve-core` re-implements the same algebra as metered kernels; this
//! crate is both the reference those kernels are verified against and the
//! CPU baseline (the Intel-MKL-`gtsv` analogue of the paper's Figure 8).
//!
//! ## Conventions
//!
//! A tridiagonal system of `n` equations is stored as four arrays
//! `a, b, c, d` of length `n`:
//!
//! ```text
//! a[i]·x[i-1] + b[i]·x[i] + c[i]·x[i+1] = d[i]
//! ```
//!
//! with `a[0] == 0` and `c[n-1] == 0` by definition. Batches of `m` systems
//! are stored system-major (system `s` occupies `s*n .. (s+1)*n` in each
//! array), matching the contiguous layout the GPU kernels stream.

pub mod banded;
pub mod cpu_batch;
pub mod cr;
pub mod dense;
pub mod error;
pub mod hybrid;
pub mod lu;
pub mod norms;
pub mod pcr;
pub mod scalar;
pub mod system;
pub mod thomas;
pub mod workloads;

pub use error::SolverError;
pub use scalar::Scalar;
pub use system::{SystemBatch, TridiagonalSystem};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, SolverError>;
