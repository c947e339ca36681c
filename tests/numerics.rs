//! Golden solution bits: the host-side numerics are pinned bit for bit.
//!
//! For every (shape, precision, seed) below, the GTX 470 is tuned
//! dynamically, the tuned plan solves a `random_dominant` batch through
//! [`SolveSession::solve`], and the FNV-1a hash of every solution
//! element's bit pattern plus the bits of `sim_time_ms()` must equal the
//! recorded constant. Any change to the order or kind of floating-point
//! operations a kernel performs, to the plan the tuner picks, or to the
//! simulated clock changes a hash, so a host-speed optimisation that
//! claims "bit for bit" proves it here.
//!
//! The shapes cover the stage-1 ladder (`1×512K`, `2×65536`), the paper's
//! `1024×1024` cell, the many-small interleaved path (`4096×64`), a small
//! batch (`16×128`) and the padding path (`3×1500`).

use trisolve::autotune::tuners::clamp_to_device;
use trisolve::prelude::*;
use trisolve::solver::kernels::{elem_bytes, GpuScalar};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Bit pattern of one solution element, widened to `u64`.
trait Bits {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

const SHAPES: [(usize, usize); 6] = [
    (1024, 1024),
    (1, 512 * 1024),
    (16, 128),
    (4096, 64),
    (3, 1500),
    (2, 65536),
];

const SEEDS: [u64; 2] = [1, 2011];

/// Hash of every (shape, seed) solve in [`SHAPES`] × [`SEEDS`] order.
fn hashes<T: GpuScalar + Bits>() -> Vec<u64> {
    let mut out = Vec::new();
    for (m, n) in SHAPES {
        let shape = WorkloadShape::new(m, n);
        let mut gpu: Gpu<T> = Gpu::new(DeviceSpec::gtx_470());
        let q = gpu.spec().queryable().clone();
        let eb = elem_bytes::<T>();
        let mut tuner = DynamicTuner::new();
        tuner.tune_for(&mut gpu, shape);
        let params = clamp_to_device(tuner.params_for(shape, &q, eb), &q, eb);
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        for seed in SEEDS {
            let batch = random_dominant::<T>(shape, seed).unwrap();
            let outcome = session.solve(&mut gpu, &batch, &params).unwrap();
            let mut h = FNV_OFFSET;
            for &v in &outcome.x {
                h = fnv1a(h, &v.bits().to_le_bytes());
            }
            h = fnv1a(h, &outcome.sim_time_ms().to_bits().to_le_bytes());
            out.push(h);
        }
    }
    out
}

fn check(name: &str, got: &[u64], want: &[u64]) {
    let mut bad = Vec::new();
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            let (m, n) = SHAPES[i / SEEDS.len()];
            let seed = SEEDS[i % SEEDS.len()];
            bad.push(format!(
                "{m}x{n} seed {seed}: got {g:#018x}, want {w:#018x}"
            ));
        }
    }
    assert_eq!(got.len(), want.len(), "{name}: case count");
    assert!(
        bad.is_empty(),
        "{name} solution bits moved:\n{}",
        bad.join("\n")
    );
}

#[test]
fn f32_solution_bits_are_golden() {
    check("f32", &hashes::<f32>(), &GOLDEN_F32);
}

#[test]
fn f64_solution_bits_are_golden() {
    check("f64", &hashes::<f64>(), &GOLDEN_F64);
}

/// Recorded before the slice-based PCR row update replaced the scalar
/// loops; unchanged by it.
const GOLDEN_F32: [u64; 12] = [
    // 1024x1024, seeds 1 and 2011
    0x1241_6bca_f63b_7339,
    0xe79c_724a_714a_2dc3,
    // 1x524288, seeds 1 and 2011
    0x32d7_fd35_1720_4e15,
    0xf701_4208_ddbc_89ac,
    // 16x128, seeds 1 and 2011
    0x12b9_f6bd_fd01_3d26,
    0x933a_9471_e184_daec,
    // 4096x64, seeds 1 and 2011
    0x88e2_5d83_1206_1d5f,
    0xd811_d2a1_0a71_e58a,
    // 3x1500, seeds 1 and 2011
    0x19c4_a8a5_d9ea_eaa3,
    0x4c5f_1088_dedb_3753,
    // 2x65536, seeds 1 and 2011
    0x1a3b_08f0_916d_8c90,
    0x0e04_5008_e63b_3791,
];

const GOLDEN_F64: [u64; 12] = [
    // 1024x1024, seeds 1 and 2011
    0x2c32_69de_e988_f5cb,
    0xf72e_cc05_7e63_fb7d,
    // 1x524288, seeds 1 and 2011
    0x961f_0488_cb74_6cb5,
    0x531f_3d9f_bec6_eb9c,
    // 16x128, seeds 1 and 2011
    0x66da_cb0d_e93c_8e2c,
    0xb996_43a8_6453_71ed,
    // 4096x64, seeds 1 and 2011
    0x34df_0210_557f_e10b,
    0xc5fe_fabc_b1ca_10c7,
    // 3x1500, seeds 1 and 2011
    0x9290_a2be_66ad_4fec,
    0x25a6_bdb5_0f99_7dc9,
    // 2x65536, seeds 1 and 2011
    0x49e0_53d7_c335_a8a3,
    0xedb1_1064_a748_f314,
];
