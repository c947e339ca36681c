#![warn(missing_docs)]

//! # trisolve-gpu-sim
//!
//! A *functional* GPU machine simulator: the hardware substitute for the
//! CUDA GPUs the paper runs on (see DESIGN.md §2).
//!
//! Kernels are ordinary Rust closures executed once per block over real
//! buffers, so they produce numerically correct results that the test suites
//! verify against the CPU reference algorithms. While a kernel runs it meters
//! its own memory traffic, arithmetic and synchronisation through a
//! [`BlockCtx`]; an analytic SM-scheduler model then converts the meters into
//! simulated milliseconds, accounting for the first-order effects every GPU
//! performance paper models:
//!
//! * **residency/occupancy** — how many blocks fit on a processor at once,
//!   limited by threads, registers and shared memory;
//! * **latency hiding** — too few resident warps ⇒ stalls;
//! * **coalescing** — strided global access wastes transaction bandwidth;
//! * **shared-memory banking** — conflicting accesses serialise;
//! * **launch overhead** — each kernel launch (the paper's stage-1 global
//!   synchronisation) costs a fixed latency.
//!
//! The device descriptions split into a **queryable** part — exactly the
//! fields CUDA's `deviceProperties` exposes (paper Table II) — and a
//! **hidden** part (memory bandwidth, bank organisation, latency constants)
//! that the paper notes *cannot* be queried. The static machine-query tuner
//! is only given the queryable part; the dynamic tuner can measure simulated
//! time. This reproduces the information asymmetry that drives the paper's
//! central result.

pub mod cost;
pub mod cpu;
pub mod device;
pub mod error;
pub mod fault;
pub mod launch;
pub mod memory;
pub mod sanitizer;
pub mod stream;
pub mod timing;
pub mod validate;
mod writelog;

pub use cost::{CostCounters, KernelStats, LimitedBy};
pub use cpu::CpuSpec;
pub use device::{DeviceSpec, HiddenProps, QueryableProps};
pub use error::SimError;
pub use fault::{FaultInjector, FaultKind, FaultLog, FaultPlan, FaultRecord};
pub use launch::{
    store_tile, BlockCtx, BlockIo, BlockOut, LaunchConfig, OutMode, ScatterWriter, TileScratch,
};
pub use memory::{BufferId, DeviceBuffer, Gpu};
pub use sanitizer::{AccessSite, Hazard, HazardKind, Region, SanitizerReport};
pub use stream::{
    overlap_ratio, serial_time_s, transfer_time_s, wall_time_s, Event, OpInterval, Stream,
    MAX_STREAMS, PCIE_BANDWIDTH_BYTES_PER_S, PCIE_LATENCY_S,
};
pub use validate::{
    occupancy_estimate, validate_launch, validate_launches, DiagLevel, Diagnostic, ValidationReport,
};

/// Element types storable in simulated device memory.
pub trait Element: Copy + Send + Sync + Default + std::fmt::Debug + 'static {
    /// Size of the element in bytes (drives the traffic model).
    const BYTES: usize;

    /// The value with one storage bit flipped (`bit` taken modulo the bit
    /// width): the fault injector's ECC-corruption primitive.
    #[must_use]
    fn flip_bit(self, bit: u32) -> Self;
}

macro_rules! impl_element_float {
    ($($t:ty => $bits:ty),*) => {
        $(impl Element for $t {
            const BYTES: usize = std::mem::size_of::<$t>();

            fn flip_bit(self, bit: u32) -> Self {
                let mask = (1 as $bits) << (bit % (8 * Self::BYTES as u32));
                Self::from_bits(self.to_bits() ^ mask)
            }
        })*
    };
}

macro_rules! impl_element_int {
    ($($t:ty),*) => {
        $(impl Element for $t {
            const BYTES: usize = std::mem::size_of::<$t>();

            fn flip_bit(self, bit: u32) -> Self {
                self ^ ((1 as $t) << (bit % (8 * Self::BYTES as u32)))
            }
        })*
    };
}

impl_element_float!(f32 => u32, f64 => u64);
impl_element_int!(u32, u64, i32, i64);

#[cfg(test)]
mod element_tests {
    use super::Element;

    #[test]
    fn flip_bit_is_an_involution_and_changes_the_value() {
        assert_eq!(1.0f32.flip_bit(3).flip_bit(3), 1.0);
        assert_ne!(1.0f32.flip_bit(31), 1.0); // sign bit
        assert_eq!(2.5f64.flip_bit(63).flip_bit(63), 2.5);
        assert_eq!(0u32.flip_bit(5), 32);
        assert_eq!((-7i64).flip_bit(64 + 2), (-7i64) ^ 4); // modulo width
    }
}
