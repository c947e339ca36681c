//! Auto-tuned multi-stage FFT — the *other* divide-and-conquer algorithm
//! the paper names (§I: "a large class of divide-and-conquer problems such
//! as fast Fourier Transforms (FFT) and quicksort").
//!
//! The classic **four-step** decomposition maps exactly onto the paper's
//! stage anatomy: a transform of size `N = N1·N2` becomes
//!
//! 1. `N2` on-chip FFTs of size `N1` over stride-`N2` columns (strided
//!    gather, like the base kernel's strided variant), fused with the
//!    twiddle multiplication;
//! 2. `N1` on-chip FFTs of size `N2` over the intermediate array, scattered
//!    back to the output positions.
//!
//! Both `N1` and `N2` must fit in shared memory, so the *split point* `N1`
//! is a tunable switch with the same flavour as the solver's on-chip size:
//! bigger `N1` means fewer, larger on-chip transforms (occupancy pressure),
//! smaller `N1` means a larger strided dimension (coalescing pressure).
//! [`tune_fft`] hill-climbs it from a machine-query seed.
//!
//! Complex data travels as two separate `f64` buffers (re/im), so the
//! simulator's element model stays scalar.

use trisolve_autotune::{hill_climb_pow2, Pow2Axis};
use trisolve_gpu_sim::{Gpu, KernelStats, LaunchConfig, OutMode, QueryableProps, SimError};

/// Tunable parameters of the multi-stage FFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftParams {
    /// First-dimension split `N1` (power of two). Both `N1` and `N/N1`
    /// must fit on-chip.
    pub n1: usize,
}

/// Result of a multi-stage FFT.
#[derive(Debug, Clone)]
pub struct FftOutcome {
    /// Real parts of the spectrum.
    pub re: Vec<f64>,
    /// Imaginary parts of the spectrum.
    pub im: Vec<f64>,
    /// Simulated seconds.
    pub sim_time_s: f64,
    /// Per-launch profile.
    pub kernel_stats: Vec<KernelStats>,
}

/// Largest on-chip FFT size for a device: two complex working arrays of
/// `f64` in shared memory.
pub fn max_onchip_fft(q: &QueryableProps) -> usize {
    let by_shmem = q.shared_mem_per_sm_bytes / (2 * 8);
    let by_threads = q.max_threads_per_block;
    let mut p = 1usize;
    while p * 2 <= by_shmem.min(by_threads * 2) {
        p *= 2;
    }
    p
}

/// Machine-query guess: a balanced split, clamped so both factors fit.
pub fn static_fft_params(q: &QueryableProps, n: usize) -> FftParams {
    let cap = max_onchip_fft(q);
    let mut n1 = 1usize;
    while n1 * n1 < n {
        n1 *= 2;
    }
    FftParams {
        n1: n1.min(cap).max(n.div_ceil(cap).next_power_of_two()),
    }
}

/// Forward DFT of `re/im` (length a power of two) on the simulated GPU via
/// the four-step decomposition. Lengths up to `max_onchip_fft(..)²` are
/// supported (one recursion level, like the paper's two splitting stages).
pub fn fft_on_gpu(
    gpu: &mut Gpu<f64>,
    re: &[f64],
    im: &[f64],
    params: FftParams,
) -> Result<FftOutcome, SimError> {
    let n = re.len();
    if n == 0 || !n.is_power_of_two() || im.len() != n {
        return Err(SimError::InvalidLaunch {
            detail: format!("FFT length {n} must be a nonzero power of two (re/im equal)"),
        });
    }
    let cap = max_onchip_fft(gpu.spec().queryable());

    // Small transforms: a single on-chip kernel, one block.
    if n <= cap {
        return single_stage(gpu, re, im, n);
    }

    let n1 = params.n1;
    if !n1.is_power_of_two() || n1 > cap || !n.is_multiple_of(n1) {
        return Err(SimError::InvalidLaunch {
            detail: format!("invalid split n1={n1} for n={n} (cap {cap})"),
        });
    }
    let n2 = n / n1;
    if n2 > cap {
        return Err(SimError::InvalidLaunch {
            detail: format!("n2={n2} exceeds on-chip cap {cap}; choose a larger n1"),
        });
    }

    let src_re = gpu.alloc_from(re)?;
    let src_im = gpu.alloc_from(im)?;
    let mid_re = gpu.alloc(n)?;
    let mid_im = gpu.alloc(n)?;
    let out_re = gpu.alloc(n)?;
    let out_im = gpu.alloc(n)?;
    let t0 = gpu.elapsed_s();
    let launches_before = gpu.timeline().len();

    // ---- Kernel 1: column FFTs of size n1 + twiddles ---------------------
    // Block c gathers x[j*n2 + c] (stride n2), FFTs, multiplies by
    // W_N^{j·c}, and writes the transposed intermediate A_t[c*n1 + j]
    // (contiguous chunk per block).
    let cfg = LaunchConfig::new(format!("fft_cols[{n1}x{n2}]"), n2, (n1 / 2).clamp(32, 512))
        .with_regs(20)
        .with_shared_mem(2 * n1 * 8);
    gpu.launch(
        &cfg,
        &[src_re, src_im],
        &[
            (mid_re, OutMode::Chunked { chunk: n1 }),
            (mid_im, OutMode::Chunked { chunk: n1 }),
        ],
        |ctx, io| {
            let c = ctx.block_id as usize;
            let mut lre: Vec<f64> = (0..n1).map(|j| io.inputs[0][j * n2 + c]).collect();
            let mut lim: Vec<f64> = (0..n1).map(|j| io.inputs[1][j * n2 + c]).collect();
            ctx.gmem_read(2 * n1, n2);
            fft_in_place(&mut lre, &mut lim, false);
            meter_onchip_fft(ctx, n1);
            // Twiddle W_N^{j c} = exp(-2πi·j·c/N).
            for j in 0..n1 {
                let ang = -2.0 * std::f64::consts::PI * (j as f64) * (c as f64) / n as f64;
                let (s, co) = ang.sin_cos();
                let (a, b) = (lre[j], lim[j]);
                lre[j] = a * co - b * s;
                lim[j] = a * s + b * co;
            }
            ctx.ops(6 * n1);
            io.owned[0].copy_from_slice(&lre);
            io.owned[1].copy_from_slice(&lim);
            ctx.gmem_write(2 * n1, 1);
        },
    )?;

    // ---- Kernel 2: row FFTs of size n2, scatter to output ----------------
    // Block k1 gathers A_t[c*n1 + k1] (stride n1), FFTs over c, and writes
    // X[k2*n1 + k1] (stride n1).
    let cfg = LaunchConfig::new(format!("fft_rows[{n1}x{n2}]"), n1, (n2 / 2).clamp(32, 512))
        .with_regs(20)
        .with_shared_mem(2 * n2 * 8);
    gpu.launch(
        &cfg,
        &[mid_re, mid_im],
        &[(out_re, OutMode::Scattered), (out_im, OutMode::Scattered)],
        |ctx, io| {
            let k1 = ctx.block_id as usize;
            let mut lre: Vec<f64> = (0..n2).map(|c| io.inputs[0][c * n1 + k1]).collect();
            let mut lim: Vec<f64> = (0..n2).map(|c| io.inputs[1][c * n1 + k1]).collect();
            ctx.gmem_read(2 * n2, n1);
            fft_in_place(&mut lre, &mut lim, false);
            meter_onchip_fft(ctx, n2);
            for k2 in 0..n2 {
                io.scattered[0].set(k2 * n1 + k1, lre[k2]);
                io.scattered[1].set(k2 * n1 + k1, lim[k2]);
            }
            ctx.gmem_write(2 * n2, n1);
        },
    )?;

    let sim_time_s = gpu.elapsed_s() - t0;
    let kernel_stats = gpu.timeline()[launches_before..].to_vec();
    let re_out = gpu.download(out_re)?;
    let im_out = gpu.download(out_im)?;
    for id in [src_re, src_im, mid_re, mid_im, out_re, out_im] {
        gpu.free(id)?;
    }
    Ok(FftOutcome {
        re: re_out,
        im: im_out,
        sim_time_s,
        kernel_stats,
    })
}

fn single_stage(
    gpu: &mut Gpu<f64>,
    re: &[f64],
    im: &[f64],
    n: usize,
) -> Result<FftOutcome, SimError> {
    let src_re = gpu.alloc_from(re)?;
    let src_im = gpu.alloc_from(im)?;
    let out_re = gpu.alloc(n)?;
    let out_im = gpu.alloc(n)?;
    let t0 = gpu.elapsed_s();
    let launches_before = gpu.timeline().len();
    let cfg = LaunchConfig::new(format!("fft_single[{n}]"), 1, (n / 2).clamp(1, 512))
        .with_regs(20)
        .with_shared_mem(2 * n * 8);
    gpu.launch(
        &cfg,
        &[src_re, src_im],
        &[
            (out_re, OutMode::Chunked { chunk: n }),
            (out_im, OutMode::Chunked { chunk: n }),
        ],
        |ctx, io| {
            let mut lre = io.inputs[0].to_vec();
            let mut lim = io.inputs[1].to_vec();
            ctx.gmem_read(2 * n, 1);
            fft_in_place(&mut lre, &mut lim, false);
            meter_onchip_fft(ctx, n);
            io.owned[0].copy_from_slice(&lre);
            io.owned[1].copy_from_slice(&lim);
            ctx.gmem_write(2 * n, 1);
        },
    )?;
    let sim_time_s = gpu.elapsed_s() - t0;
    let kernel_stats = gpu.timeline()[launches_before..].to_vec();
    let re_out = gpu.download(out_re)?;
    let im_out = gpu.download(out_im)?;
    for id in [src_re, src_im, out_re, out_im] {
        gpu.free(id)?;
    }
    Ok(FftOutcome {
        re: re_out,
        im: im_out,
        sim_time_s,
        kernel_stats,
    })
}

fn meter_onchip_fft(ctx: &mut trisolve_gpu_sim::BlockCtx<'_>, n: usize) {
    let stages = n.max(2).trailing_zeros() as usize;
    for _ in 0..stages {
        // One radix-2 butterfly per point pair: ~10 flops, 4 shared words.
        ctx.ops(10 * n / 2);
        ctx.smem_conflict(4 * n / 2, 2.0); // f64 on 32-bit banks
        ctx.sync();
    }
}

/// Iterative in-place radix-2 FFT (`inverse = true` for the unscaled
/// inverse transform).
pub fn fft_in_place(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    debug_assert!(n.is_power_of_two());
    // Bit reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterfly stages.
    let sign = if inverse { 2.0 } else { -2.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * std::f64::consts::PI / len as f64;
        let (wls, wlc) = ang.sin_cos();
        let mut i = 0usize;
        while i < n {
            let (mut wr, mut wi) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr0, vi0) = (re[i + k + len / 2], im[i + k + len / 2]);
                let vr = vr0 * wr - vi0 * wi;
                let vi = vr0 * wi + vi0 * wr;
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let (nwr, nwi) = (wr * wlc - wi * wls, wr * wls + wi * wlc);
                wr = nwr;
                wi = nwi;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Tune the four-step split `N1` for transforms of length `len` on this
/// device, hill-climbing from the balanced machine-query seed. A transform
/// that fits on chip runs as one kernel whatever `N1` says, so it has no
/// split to search: it keeps the seed after zero evaluations.
pub fn tune_fft(gpu: &mut Gpu<f64>, len: usize) -> (FftParams, usize) {
    assert!(len.is_power_of_two());
    let q = gpu.spec().queryable().clone();
    let cap = max_onchip_fft(&q);
    let seed = static_fft_params(&q, len);
    if len <= cap {
        return (seed, 0);
    }
    let min_n1 = len.div_ceil(cap).next_power_of_two().max(2);
    let max_n1 = cap.min(len);
    let axis = Pow2Axis::new("fft_n1", min_n1, max_n1);
    let re: Vec<f64> = (0..len)
        .map(|i| ((i * 37 % 256) as f64) / 128.0 - 1.0)
        .collect();
    let im = vec![0.0f64; len];
    let mut evals = 0usize;
    let (n1, _, _) = hill_climb_pow2(axis, seed.n1, |n1| {
        evals += 1;
        match fft_on_gpu(gpu, &re, &im, FftParams { n1 }) {
            Ok(out) => out.sim_time_s,
            Err(_) => f64::INFINITY,
        }
    });
    (FftParams { n1 }, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::DeviceSpec;

    fn naive_dft(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let mut or_ = vec![0.0; n];
        let mut oi = vec![0.0; n];
        for k in 0..n {
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (s, c) = ang.sin_cos();
                or_[k] += re[t] * c - im[t] * s;
                oi[k] += re[t] * s + im[t] * c;
            }
        }
        (or_, oi)
    }

    fn signal(n: usize) -> (Vec<f64>, Vec<f64>) {
        let re: Vec<f64> = (0..n)
            .map(|i| ((i * 7919 % 1000) as f64) / 500.0 - 1.0)
            .collect();
        let im: Vec<f64> = (0..n)
            .map(|i| ((i * 104729 % 1000) as f64) / 500.0 - 1.0)
            .collect();
        (re, im)
    }

    #[test]
    fn cpu_fft_matches_naive_dft() {
        for n in [1usize, 2, 4, 16, 64, 256] {
            let (re, im) = signal(n);
            let (er, ei) = naive_dft(&re, &im);
            let mut fr = re.clone();
            let mut fi = im.clone();
            fft_in_place(&mut fr, &mut fi, false);
            for k in 0..n {
                assert!((fr[k] - er[k]).abs() < 1e-8, "n={n} k={k}");
                assert!((fi[k] - ei[k]).abs() < 1e-8, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn cpu_fft_round_trips() {
        let n = 1024;
        let (re0, im0) = signal(n);
        let mut re = re0.clone();
        let mut im = im0.clone();
        fft_in_place(&mut re, &mut im, false);
        fft_in_place(&mut re, &mut im, true);
        for k in 0..n {
            assert!((re[k] / n as f64 - re0[k]).abs() < 1e-10);
            assert!((im[k] / n as f64 - im0[k]).abs() < 1e-10);
        }
    }

    #[test]
    fn gpu_single_stage_matches_cpu() {
        let n = 512;
        let (re, im) = signal(n);
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let out = fft_on_gpu(&mut gpu, &re, &im, FftParams { n1: 1 }).unwrap();
        let mut er = re.clone();
        let mut ei = im.clone();
        fft_in_place(&mut er, &mut ei, false);
        for k in 0..n {
            assert!((out.re[k] - er[k]).abs() < 1e-9);
            assert!((out.im[k] - ei[k]).abs() < 1e-9);
        }
        assert_eq!(out.kernel_stats.len(), 1);
    }

    #[test]
    fn gpu_four_step_matches_cpu_for_various_splits() {
        let n = 1 << 14; // larger than the 16 KB devices' on-chip cap
        let (re, im) = signal(n);
        let mut er = re.clone();
        let mut ei = im.clone();
        fft_in_place(&mut er, &mut ei, false);
        for dev in [DeviceSpec::geforce_8800_gtx(), DeviceSpec::gtx_470()] {
            let cap = max_onchip_fft(dev.queryable());
            let mut n1 = (n / cap).max(32);
            while n1 <= cap.min(n) {
                let mut gpu: Gpu<f64> = Gpu::new(dev.clone());
                let out = fft_on_gpu(&mut gpu, &re, &im, FftParams { n1 }).unwrap();
                let worst = out
                    .re
                    .iter()
                    .zip(&er)
                    .chain(out.im.iter().zip(&ei))
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(worst < 1e-7, "{} n1={n1}: worst {worst:.2e}", dev.name());
                assert_eq!(gpu.allocated_bytes(), 0);
                n1 *= 4;
            }
        }
    }

    #[test]
    fn oversized_splits_rejected() {
        let n = 1 << 14;
        let (re, im) = signal(n);
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        // cap on the 8800 is 1024 (16 KB / 16 B); n1=8 leaves n2=2048 > cap.
        assert!(fft_on_gpu(&mut gpu, &re, &im, FftParams { n1: 8 }).is_err());
        assert!(fft_on_gpu(&mut gpu, &re, &im, FftParams { n1: 3 }).is_err());
    }

    #[test]
    fn on_chip_lengths_need_no_split_search() {
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        for n in [1usize, 2, 4] {
            let (params, evals) = tune_fft(&mut gpu, n);
            assert_eq!(evals, 0);
            let (re, im) = signal(n);
            let out = fft_on_gpu(&mut gpu, &re, &im, params).unwrap();
            assert_eq!(out.re.len(), n);
        }
    }

    #[test]
    fn tuning_picks_a_valid_fast_split() {
        let n = 1 << 16;
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let (params, evals) = tune_fft(&mut gpu, n);
        assert!(evals >= 2);
        let (re, im) = signal(n);
        let tuned = fft_on_gpu(&mut gpu, &re, &im, params).unwrap();
        // Tuned split must not lose to the balanced static seed.
        let seed = static_fft_params(gpu.spec().queryable(), n);
        let seeded = fft_on_gpu(&mut gpu, &re, &im, seed).unwrap();
        assert!(tuned.sim_time_s <= seeded.sim_time_s * 1.001);
        // And it must still be correct.
        let mut er = re.clone();
        let mut ei = im.clone();
        fft_in_place(&mut er, &mut ei, false);
        let worst = tuned
            .re
            .iter()
            .zip(&er)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-6);
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 1 << 12;
        let (re, im) = signal(n);
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let out = fft_on_gpu(&mut gpu, &re, &im, FftParams { n1: 64 }).unwrap();
        let e_time: f64 = re.iter().zip(&im).map(|(a, b)| a * a + b * b).sum();
        let e_freq: f64 = out
            .re
            .iter()
            .zip(&out.im)
            .map(|(a, b)| a * a + b * b)
            .sum::<f64>()
            / n as f64;
        assert!(((e_time - e_freq) / e_time).abs() < 1e-10);
    }
}
