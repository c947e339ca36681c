//! Device descriptions: the queryable properties (paper Table II), the
//! hidden micro-architectural constants the paper notes cannot be queried,
//! and presets for the three GPUs of the paper's Table I.

use serde::{Deserialize, Serialize};

/// The subset of device properties a program can query at runtime — the
/// simulator's rendition of CUDA's `deviceProperties` (paper Table II).
///
/// The *static* (machine-query) tuner sees only this struct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryableProps {
    /// Marketing name, e.g. `"GeForce GTX 470"`.
    pub name: String,
    /// Total global memory in bytes.
    pub global_mem_bytes: usize,
    /// Number of processors (streaming multiprocessors).
    pub num_processors: usize,
    /// Constant memory in bytes.
    pub constant_mem_bytes: usize,
    /// Shared memory per processor in bytes.
    pub shared_mem_per_sm_bytes: usize,
    /// 32-bit registers per processor.
    pub registers_per_sm: usize,
    /// Maximum number of blocks in a grid.
    pub max_grid_blocks: usize,
    /// Maximum threads in one block.
    pub max_threads_per_block: usize,
    /// Maximum resident threads per processor.
    pub max_threads_per_sm: usize,
    /// Maximum resident blocks per processor.
    pub max_blocks_per_sm: usize,
    /// Warp size (threads executing in lockstep); 32 on every NVIDIA GPU.
    pub warp_size: usize,
    /// Thread processors (lanes) per processor.
    pub thread_procs_per_sm: usize,
}

/// Micro-architectural constants a program **cannot** query — the paper's
/// §IV-C list: memory bandwidth ("dependent on the number of memory
/// controllers and the bus width"), the number of shared-memory banks, and
/// the bandwidth per bank — plus the latency/overhead constants any cost
/// model needs.
///
/// These drive the simulator's timing model. They are deliberately kept out
/// of [`QueryableProps`] so the static tuner is information-limited for the
/// same reason it is on real hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HiddenProps {
    /// Peak global memory bandwidth in GB/s (Table I values).
    pub mem_bandwidth_gbps: f64,
    /// Fraction of peak bandwidth a fully-occupied streaming kernel
    /// achieves in practice.
    pub achievable_bw_fraction: f64,
    /// Number of shared memory banks.
    pub shared_banks: usize,
    /// Words served per bank per cycle.
    pub bank_words_per_cycle: f64,
    /// Core (shader) clock in GHz.
    pub core_clock_ghz: f64,
    /// Global memory latency in core cycles.
    pub mem_latency_cycles: f64,
    /// Fixed cost of one kernel launch, in microseconds. This is the price
    /// of the paper's stage-1 global synchronisation.
    pub launch_overhead_us: f64,
    /// Resident warps per SM needed to fully hide memory latency.
    pub hide_warps: f64,
    /// Warp-overlap efficiency when only one block is resident on an SM:
    /// barriers idle the whole processor (`< 1`). With two resident blocks
    /// the other block covers the barrier, etc.
    pub block_overlap: [f64; 3],
    /// Minimum global-memory transaction size in bytes (coalescing floor):
    /// a fully-scattered access still moves this many bytes per element.
    pub min_transaction_bytes: f64,
    /// Cost of a block-wide barrier in cycles.
    pub barrier_cycles: f64,
    /// Issue cost, in cycles, of one 128-byte transaction slot. An
    /// uncoalesced warp access serialises into many slots, so this is the
    /// *latency-side* price of strided access (the bandwidth-side price is
    /// `min_transaction_bytes` waste).
    pub txn_issue_cycles: f64,
    /// Resident warps needed to hide *shared-memory/pipeline* latency in a
    /// serial phase (the Thomas stage). Roughly scales with the depth of the
    /// load/store pipeline; low on G80-class parts where shared memory is a
    /// direct ALU operand, higher on deeper-pipelined parts.
    pub smem_pipeline_warps: f64,
    /// Exposed latency, in cycles, of one *dependent* step of a serial
    /// phase when a block has too few active warps to interleave
    /// (division + shared-memory round-trip of one Thomas iteration).
    pub serial_dep_latency_cycles: f64,
    /// Fraction of *redundant* global reads (overlapping neighbour streams
    /// staged through shared memory or caught by the texture/L1 cache) that
    /// do not reach the memory bus. Higher on cached parts.
    pub read_reuse_fraction: f64,
}

impl HiddenProps {
    /// Overlap efficiency for `resident` blocks per SM.
    pub fn overlap(&self, resident: usize) -> f64 {
        match resident {
            0 => 0.0,
            1 => self.block_overlap[0],
            2 => self.block_overlap[1],
            _ => self.block_overlap[2],
        }
    }
}

/// A complete simulated device: public face plus hidden constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    query: QueryableProps,
    hidden: HiddenProps,
}

impl DeviceSpec {
    /// The runtime-queryable properties — all a static tuner may see.
    pub fn queryable(&self) -> &QueryableProps {
        &self.query
    }

    /// Hidden micro-architectural constants.
    ///
    /// Only the simulator's own timing model (and calibration tooling) may
    /// use these. Tuning code must not: on the real hardware this
    /// information does not exist at runtime, and the paper's comparison of
    /// static vs. dynamic tuning depends on that asymmetry. The autotuners
    /// in `trisolve-autotune` take [`QueryableProps`] only.
    pub fn hidden(&self) -> &HiddenProps {
        &self.hidden
    }

    /// Short device name.
    pub fn name(&self) -> &str {
        &self.query.name
    }

    /// All three paper devices (Table I order).
    pub fn paper_devices() -> Vec<DeviceSpec> {
        vec![Self::geforce_8800_gtx(), Self::gtx_280(), Self::gtx_470()]
    }

    /// GeForce 8800 GTX (G80, 2006): Table I row 1 — 57.6 GB/s, 16 KB shared
    /// memory, 14 processors, 8 thread processors each.
    pub fn geforce_8800_gtx() -> Self {
        Self {
            query: QueryableProps {
                name: "GeForce 8800 GTX".into(),
                global_mem_bytes: 768 * 1024 * 1024,
                num_processors: 14,
                constant_mem_bytes: 64 * 1024,
                shared_mem_per_sm_bytes: 16 * 1024,
                registers_per_sm: 8 * 1024,
                max_grid_blocks: 65_535 * 65_535,
                max_threads_per_block: 512,
                max_threads_per_sm: 768,
                max_blocks_per_sm: 8,
                warp_size: 32,
                thread_procs_per_sm: 8,
            },
            hidden: HiddenProps {
                mem_bandwidth_gbps: 57.6,
                achievable_bw_fraction: 0.62,
                shared_banks: 16,
                bank_words_per_cycle: 1.0,
                core_clock_ghz: 1.35,
                mem_latency_cycles: 500.0,
                launch_overhead_us: 12.0,
                hide_warps: 6.0,
                block_overlap: [0.62, 0.88, 1.0],
                min_transaction_bytes: 32.0,
                barrier_cycles: 32.0,
                txn_issue_cycles: 1.0,
                smem_pipeline_warps: 2.0,
                serial_dep_latency_cycles: 200.0,
                read_reuse_fraction: 0.7,
            },
        }
    }

    /// GeForce GTX 280 (GT200, 2008): Table I row 2 — 141.7 GB/s, 16 KB
    /// shared memory, 30 processors, 8 thread processors each.
    pub fn gtx_280() -> Self {
        Self {
            query: QueryableProps {
                name: "GeForce GTX 280".into(),
                global_mem_bytes: 1024 * 1024 * 1024,
                num_processors: 30,
                constant_mem_bytes: 64 * 1024,
                shared_mem_per_sm_bytes: 16 * 1024,
                registers_per_sm: 16 * 1024,
                max_grid_blocks: 65_535 * 65_535,
                max_threads_per_block: 512,
                max_threads_per_sm: 1024,
                max_blocks_per_sm: 8,
                warp_size: 32,
                thread_procs_per_sm: 8,
            },
            hidden: HiddenProps {
                mem_bandwidth_gbps: 141.7,
                achievable_bw_fraction: 0.66,
                shared_banks: 16,
                bank_words_per_cycle: 1.0,
                core_clock_ghz: 1.296,
                mem_latency_cycles: 550.0,
                launch_overhead_us: 10.0,
                hide_warps: 16.0,
                block_overlap: [0.62, 0.88, 1.0],
                min_transaction_bytes: 32.0,
                barrier_cycles: 32.0,
                txn_issue_cycles: 1.0,
                smem_pipeline_warps: 8.0,
                serial_dep_latency_cycles: 400.0,
                read_reuse_fraction: 0.8,
            },
        }
    }

    /// GeForce GTX 470 (Fermi, 2010): Table I row 3 — 133.9 GB/s, 48 KB
    /// shared memory, 14 processors, 32 thread processors each.
    pub fn gtx_470() -> Self {
        Self {
            query: QueryableProps {
                name: "GeForce GTX 470".into(),
                global_mem_bytes: 1280 * 1024 * 1024,
                num_processors: 14,
                constant_mem_bytes: 64 * 1024,
                shared_mem_per_sm_bytes: 48 * 1024,
                registers_per_sm: 32 * 1024,
                max_grid_blocks: 65_535 * 65_535,
                max_threads_per_block: 1024,
                max_threads_per_sm: 1536,
                max_blocks_per_sm: 8,
                warp_size: 32,
                thread_procs_per_sm: 32,
            },
            hidden: HiddenProps {
                mem_bandwidth_gbps: 133.9,
                achievable_bw_fraction: 0.70,
                shared_banks: 32,
                bank_words_per_cycle: 1.0,
                core_clock_ghz: 1.215,
                mem_latency_cycles: 450.0,
                launch_overhead_us: 8.0,
                hide_warps: 26.0,
                block_overlap: [0.35, 0.85, 1.0],
                min_transaction_bytes: 32.0,
                barrier_cycles: 24.0,
                txn_issue_cycles: 0.8,
                smem_pipeline_warps: 8.0,
                serial_dep_latency_cycles: 150.0,
                read_reuse_fraction: 0.85,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_verbatim() {
        let d8800 = DeviceSpec::geforce_8800_gtx();
        assert_eq!(d8800.hidden().mem_bandwidth_gbps, 57.6);
        assert_eq!(d8800.queryable().shared_mem_per_sm_bytes, 16 * 1024);
        assert_eq!(d8800.queryable().num_processors, 14);
        assert_eq!(d8800.queryable().thread_procs_per_sm, 8);

        let d280 = DeviceSpec::gtx_280();
        assert_eq!(d280.hidden().mem_bandwidth_gbps, 141.7);
        assert_eq!(d280.queryable().shared_mem_per_sm_bytes, 16 * 1024);
        assert_eq!(d280.queryable().num_processors, 30);
        assert_eq!(d280.queryable().thread_procs_per_sm, 8);

        let d470 = DeviceSpec::gtx_470();
        assert_eq!(d470.hidden().mem_bandwidth_gbps, 133.9);
        assert_eq!(d470.queryable().shared_mem_per_sm_bytes, 48 * 1024);
        assert_eq!(d470.queryable().num_processors, 14);
        assert_eq!(d470.queryable().thread_procs_per_sm, 32);
    }

    #[test]
    fn register_limits_produce_paper_onchip_sizes() {
        // §V: "the largest systems that can be solved locally on-chip are of
        // sizes 256, 512, and 1024 respectively for the GeForce 8800, 280,
        // and 470". With the base kernel's ~24 registers/thread and one
        // thread per equation, the register file is the binding constraint.
        const REGS_PER_THREAD: usize = 24;
        let max_onchip = |d: &DeviceSpec| {
            let q = d.queryable();
            let by_regs = q.registers_per_sm / REGS_PER_THREAD;
            let by_shmem = q.shared_mem_per_sm_bytes / (4 * 4); // 4 f32 arrays
            let by_threads = q.max_threads_per_block;
            let cap = by_regs.min(by_shmem).min(by_threads);
            // round down to a power of two
            let mut p = 1usize;
            while p * 2 <= cap {
                p *= 2;
            }
            p
        };
        assert_eq!(max_onchip(&DeviceSpec::geforce_8800_gtx()), 256);
        assert_eq!(max_onchip(&DeviceSpec::gtx_280()), 512);
        assert_eq!(max_onchip(&DeviceSpec::gtx_470()), 1024);
    }

    #[test]
    fn warp_size_constant_across_devices() {
        for d in DeviceSpec::paper_devices() {
            assert_eq!(d.queryable().warp_size, 32);
        }
    }

    #[test]
    fn overlap_is_monotone_in_resident_blocks() {
        for d in DeviceSpec::paper_devices() {
            let h = d.hidden();
            assert_eq!(h.overlap(0), 0.0);
            assert!(h.overlap(1) < h.overlap(2));
            assert!(h.overlap(2) <= h.overlap(3));
            assert_eq!(h.overlap(3), h.overlap(9));
        }
    }

    #[test]
    fn specs_clone_and_compare() {
        let d = DeviceSpec::gtx_470();
        let cloned = d.clone();
        assert_eq!(d, cloned);
        assert_ne!(d, DeviceSpec::gtx_280());
    }
}
