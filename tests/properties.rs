//! Cross-crate property tests: for arbitrary diagonally dominant workloads
//! and arbitrary valid solver parameters, the GPU pipeline must agree with
//! the CPU reference solvers, conserve structure, and meter sane costs.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use trisolve::prelude::*;
use trisolve::solver::kernels::GpuScalar;
use trisolve::solver::StageOp;
use trisolve::tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
use trisolve::tridiag::norms;
use trisolve::tridiag::pcr;
use trisolve::tridiag::system::ChainView;
use trisolve::tridiag::thomas::{solve_thomas_chain, solve_thomas_lanes, ChainScratch, LaneView};

/// Strategy: a random diagonally dominant batch (small enough to be fast).
fn small_batch() -> impl Strategy<Value = SystemBatch<f64>> {
    (1usize..6, 1usize..200, any::<u64>())
        .prop_map(|(m, n, seed)| random_dominant::<f64>(WorkloadShape::new(m, n), seed).unwrap())
}

/// Strategy: valid solver parameters for the GTX 470 (f64).
fn valid_params() -> impl Strategy<Value = SolverParams> {
    (5u32..=9, 3u32..=9, 0usize..6, prop::bool::ANY).prop_map(|(s3l, t4l, p1l, strided)| {
        let onchip = 1usize << s3l;
        SolverParams {
            stage1_target_systems: 1 << p1l,
            onchip_size: onchip,
            thomas_switch: (1usize << t4l).min(onchip),
            variant: if strided {
                BaseVariant::Strided
            } else {
                BaseVariant::Coalesced
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gpu_solution_matches_lu(batch in small_batch(), params in valid_params()) {
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
        let lu = solve_batch_sequential(&batch, BatchAlgorithm::Lu).unwrap();
        let diff = norms::max_abs_diff(&outcome.x, &lu);
        prop_assert!(diff < 1e-8, "deviation {diff:.3e}");
    }

    #[test]
    fn residual_always_small_on_dominant_systems(batch in small_batch()) {
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let outcome =
            solve_batch_on_gpu(&mut gpu, &batch, &SolverParams::default_untuned()).unwrap();
        let res = batch_worst_relative_residual(&batch, &outcome.x).unwrap();
        prop_assert!(res < 1e-10, "residual {res:.3e}");
    }

    #[test]
    fn simulated_time_positive_and_finite(batch in small_batch(), params in valid_params()) {
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
        prop_assert!(outcome.sim_time_s.is_finite());
        prop_assert!(outcome.sim_time_s > 0.0);
        // The plan's launch count matches the profile.
        prop_assert_eq!(outcome.kernel_stats.len(), outcome.plan.num_launches());
    }

    #[test]
    fn solution_length_matches_workload(batch in small_batch()) {
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let outcome =
            solve_batch_on_gpu(&mut gpu, &batch, &SolverParams::default_untuned()).unwrap();
        prop_assert_eq!(outcome.x.len(), batch.total_equations());
        // All buffers are released.
        prop_assert_eq!(gpu.allocated_bytes(), 0);
    }

    #[test]
    fn more_equations_never_simulate_faster(
        m in 1usize..4,
        n_small in 6u32..9,
        seed in any::<u64>(),
    ) {
        // Doubling the system size must not reduce simulated time under
        // identical parameters (monotonicity of the cost model).
        let params = SolverParams::default_untuned();
        let t = |n: usize| {
            let batch = random_dominant::<f64>(WorkloadShape::new(m, n), seed).unwrap();
            let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
            solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap().sim_time_s
        };
        let small = t(1 << n_small);
        let large = t(1 << (n_small + 1));
        prop_assert!(large >= small, "large {large:.3e} < small {small:.3e}");
    }

    #[test]
    fn session_reuse_is_bit_identical_to_one_shot(
        m in 1usize..6,
        n in 1usize..200,
        seeds in prop::collection::vec(any::<u64>(), 1..5),
        params in valid_params(),
    ) {
        // N solves through one reused session — cached plan, persistent
        // device buffers — must match N independent one-shot solves bit for
        // bit (the simulation is deterministic, so reuse may not perturb
        // results or accounting).
        let shape = WorkloadShape::new(m, n);
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        for seed in seeds {
            let batch = random_dominant::<f64>(shape, seed).unwrap();
            let reused = session.solve(&mut gpu, &batch, &params).unwrap();
            let mut fresh: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
            let one_shot = solve_batch_on_gpu(&mut fresh, &batch, &params).unwrap();
            prop_assert_eq!(&reused.x, &one_shot.x);
            prop_assert_eq!(reused.sim_time_s.to_bits(), one_shot.sim_time_s.to_bits());
            prop_assert_eq!(reused.kernel_stats.len(), one_shot.kernel_stats.len());
        }
    }

    /// The interleave kernel is a pure permutation and deinterleave is its
    /// exact inverse: pushing all four coefficient planes through the pair
    /// returns the original bits for every batch geometry, including every
    /// ragged-tile padding case (`m`/`n` not multiples of the 32-wide
    /// transpose tile, single-row and single-column batches).
    #[test]
    fn interleave_roundtrip_is_bit_identical_f64(
        m in 1usize..200,
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let batch = random_dominant::<f64>(WorkloadShape::new(m, n), seed).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let src = [
            gpu.alloc_from(&batch.a).unwrap(),
            gpu.alloc_from(&batch.b).unwrap(),
            gpu.alloc_from(&batch.c).unwrap(),
            gpu.alloc_from(&batch.d).unwrap(),
        ];
        let dst = [
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
        ];
        let (systems, size) = (m, n);
        let pack = StageOp::InterleavePack { systems, size }.describe(m, n);
        pack.launch(&mut gpu, &src, &dst).unwrap();
        let unpack = StageOp::Deinterleave { systems, size }.describe(m, n);
        let back = gpu.alloc(m * n).unwrap();
        for (plane, original) in
            dst.iter().zip([&batch.a, &batch.b, &batch.c, &batch.d])
        {
            unpack.launch(&mut gpu, &[*plane], &[back]).unwrap();
            let round = gpu.download(back).unwrap();
            for (u, v) in round.iter().zip(original) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn interleave_roundtrip_is_bit_identical_f32(
        m in 1usize..200,
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let batch = random_dominant::<f32>(WorkloadShape::new(m, n), seed).unwrap();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let src = [
            gpu.alloc_from(&batch.a).unwrap(),
            gpu.alloc_from(&batch.b).unwrap(),
            gpu.alloc_from(&batch.c).unwrap(),
            gpu.alloc_from(&batch.d).unwrap(),
        ];
        let dst = [
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
            gpu.alloc(m * n).unwrap(),
        ];
        let (systems, size) = (m, n);
        let pack = StageOp::InterleavePack { systems, size }.describe(m, n);
        pack.launch(&mut gpu, &src, &dst).unwrap();
        let unpack = StageOp::Deinterleave { systems, size }.describe(m, n);
        let back = gpu.alloc(m * n).unwrap();
        for (plane, original) in
            dst.iter().zip([&batch.a, &batch.b, &batch.c, &batch.d])
        {
            unpack.launch(&mut gpu, &[*plane], &[back]).unwrap();
            let round = gpu.download(back).unwrap();
            for (u, v) in round.iter().zip(original) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    /// The batched-Thomas fast path (interleave → in-register Thomas →
    /// deinterleave) is bit-identical to the CPU batch reference running the
    /// same Thomas recurrence: the layout transforms are pure permutations
    /// and the kernel performs the exact CPU arithmetic sequence. The
    /// pivoted LU reference orders its normalisations differently (LU
    /// divides in back-substitution, Thomas in the forward sweep), so
    /// agreement with LU is pinned to rounding error instead of bits.
    #[test]
    fn interleaved_pipeline_matches_cpu_references(
        m in 32usize..80,
        n in 1usize..200,
        seed in any::<u64>(),
    ) {
        let batch = random_dominant::<f64>(WorkloadShape::new(m, n), seed).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let params = SolverParams {
            variant: BaseVariant::Interleaved,
            ..SolverParams::default_untuned()
        };
        let outcome = solve_batch_on_gpu(&mut gpu, &batch, &params).unwrap();
        let thomas = solve_batch_sequential(&batch, BatchAlgorithm::Thomas).unwrap();
        for (g, t) in outcome.x.iter().zip(&thomas) {
            prop_assert_eq!(g.to_bits(), t.to_bits());
        }
        let lu = solve_batch_sequential(&batch, BatchAlgorithm::Lu).unwrap();
        let diff = norms::max_abs_diff(&outcome.x, &lu);
        prop_assert!(diff < 1e-8, "deviation from LU {diff:.3e}");
    }

    #[test]
    fn tuned_params_are_always_valid(
        m in 1usize..2000,
        n in 1usize..100_000,
    ) {
        // Whatever the workload, every tuner must return parameters the
        // device accepts.
        let shape = WorkloadShape::new(m, n);
        for device in DeviceSpec::paper_devices() {
            let q = device.queryable();
            for eb in [4usize, 8] {
                let p = StaticTuner.params_for(shape, q, eb);
                prop_assert!(p.validate(q, eb).is_ok());
                let p = DefaultTuner.params_for(shape, q, eb);
                prop_assert!(p.validate(q, eb).is_ok());
            }
        }
    }
}

/// A singular batch (zero diagonal everywhere) that passes construction but
/// breaks down numerically inside the base kernel — mid-pipeline, after the
/// splitting launches have already run on allocated device buffers.
fn singular_batch(m: usize, n: usize) -> SystemBatch<f64> {
    let mut a = vec![1.0f64; n];
    let b = vec![0.0f64; n];
    let mut c = vec![1.0f64; n];
    a[0] = 0.0;
    c[n - 1] = 0.0;
    let d = vec![1.0f64; n];
    let sys = TridiagonalSystem::new(a, b, c, d).unwrap();
    SystemBatch::replicate(&sys, m).unwrap()
}

#[test]
fn mid_pipeline_kernel_error_leaks_no_device_memory() {
    // 2048 equations: the splitting stages run (and allocate) before the
    // base kernel detects the breakdown.
    let batch = singular_batch(4, 2048);
    let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
    let err = solve_batch_on_gpu(&mut gpu, &batch, &SolverParams::default_untuned());
    assert!(
        matches!(
            err,
            Err(trisolve::solver::CoreError::NumericalBreakdown { .. })
        ),
        "expected numerical breakdown, got {err:?}"
    );
    // The session's RAII buffer guards released every device allocation on
    // the error path — no manual cleanup anywhere on the way out.
    assert_eq!(
        gpu.allocated_bytes(),
        0,
        "device memory leaked on error path"
    );
}

#[test]
fn session_error_path_frees_buffers_on_drop() {
    let shape = WorkloadShape::new(2, 128);
    let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
    {
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        assert!(gpu.allocated_bytes() > 0, "session holds device buffers");
        let err = session.solve(
            &mut gpu,
            &singular_batch(2, 128),
            &SolverParams::default_untuned(),
        );
        assert!(err.is_err());
        // The session survives the failed solve and stays usable...
        let good = random_dominant::<f64>(shape, 7).unwrap();
        assert!(session
            .solve(&mut gpu, &good, &SolverParams::default_untuned())
            .is_ok());
    }
    // ...and dropping it returns every byte.
    assert_eq!(gpu.allocated_bytes(), 0);
}

/// Signed zeros, subnormals (of f32 and of f64), infinities, NaN, and
/// magnitudes either side of the 1e-30 pivot threshold.
const SPECIALS: [f64; 15] = [
    0.0,
    -0.0,
    1e-40,
    -1e-40,
    1e-310,
    -5e-324,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    0.99e-30,
    -0.99e-30,
    1e-30,
    1.01e-30,
    -1.01e-30,
    1e300,
];

/// Lanes of `len` rows at row stride `lanes + pad`, solved by
/// `solve_thomas_lanes` and by `solve_thomas_chain` one lane at a time:
/// every lane's verdict and, where it passes, every solution bit agree.
/// About a third of the lanes get special values planted; in some of them
/// the row's `a` is zeroed so `b` is the pivot exactly.
fn lanes_match_chains<T: Scalar>(
    lanes: usize,
    len: usize,
    pad: usize,
    offset: usize,
    seed: u64,
) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let row_stride = lanes + pad;
    let size = offset + (len - 1) * row_stride + lanes;
    let mut coeffs = [(-1.0, 1.0), (2.5, 4.0), (-1.0, 1.0), (-10.0, 10.0)].map(|(lo, hi)| {
        (0..size)
            .map(|_| rng.gen_range(lo..hi))
            .collect::<Vec<f64>>()
    });
    for v in coeffs[1].iter_mut().step_by(3) {
        *v = -*v;
    }
    for t in 0..lanes {
        if rng.gen_range(0..3) != 0 {
            continue;
        }
        for _ in 0..rng.gen_range(1..4) {
            let i = offset + rng.gen_range(0..len) * row_stride + t;
            let arr = rng.gen_range(0..4);
            coeffs[arr][i] = SPECIALS[rng.gen_range(0..SPECIALS.len())];
            if arr == 1 && rng.gen::<bool>() {
                coeffs[0][i] = 0.0;
            }
        }
    }
    let [a, b, c, d] = coeffs.map(|v| v.into_iter().map(T::from_f64).collect::<Vec<T>>());

    let view = LaneView {
        offset,
        row_stride,
        lanes,
        len,
    };
    // Working space left dirty by an earlier sweep: the sweep must not
    // read it before writing it.
    let mut x = vec![T::from_f64(f64::NAN); len * lanes];
    let mut cp = vec![T::from_f64(f64::NAN); len * lanes];
    let mut broke = vec![true; lanes];
    solve_thomas_lanes(&view, &a, &b, &c, &d, &mut x, &mut cp, &mut broke);

    let mut chain_x = vec![T::ZERO; size];
    let mut chain_scratch = ChainScratch::new();
    let same_bits = |u: T, v: T| {
        let (u, v) = (u.to_f64(), v.to_f64());
        u.to_bits() == v.to_bits() || (u.is_nan() && v.is_nan())
    };
    for (t, &lane_broke) in broke.iter().enumerate() {
        let chain = ChainView {
            offset: offset + t,
            stride: row_stride,
            len,
        };
        let passed = solve_thomas_chain(&chain, &a, &b, &c, &d, &mut chain_x, &mut chain_scratch);
        prop_assert!(lane_broke == passed.is_err(), "lane {t}: {passed:?}");
        if passed.is_ok() {
            for k in 0..len {
                let (u, v) = (x[k * lanes + t], chain_x[chain.index(k)]);
                prop_assert!(same_bits(u, v), "lane {t} row {k}: {u:?} vs {v:?}");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn thomas_lanes_match_per_chain_thomas_f32(
        lanes in 1usize..=256,
        len in 1usize..=64,
        pad in 0usize..5,
        offset in 0usize..4,
        seed in any::<u64>(),
    ) {
        lanes_match_chains::<f32>(lanes, len, pad, offset, seed)?;
    }

    #[test]
    fn thomas_lanes_match_per_chain_thomas_f64(
        lanes in 1usize..=256,
        len in 1usize..=64,
        pad in 0usize..5,
        offset in 0usize..4,
        seed in any::<u64>(),
    ) {
        lanes_match_chains::<f64>(lanes, len, pad, offset, seed)?;
    }
}

/// Planted trouble for [`chain_tiles_match`]: none, a zero row (a
/// guaranteed zero or NaN pivot in the base kernel's Thomas phase), or a
/// NaN right-hand side in the middle of one chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plant {
    None,
    ZeroRow,
    NanRhs,
}

/// Stage 2 applied the way one block per chain does it: gather the chain,
/// `steps` PCR steps on the chain-contiguous copy, scatter it back.
fn per_chain_stage2<T: GpuScalar>(
    src: &[Vec<T>; 4],
    out: &mut [Vec<T>; 4],
    chains: &[ChainView],
    steps: u32,
) {
    for chain in chains {
        let mut cur = src.each_ref().map(|v| chain.gather(v));
        let mut next = [(); 4].map(|()| vec![T::ZERO; chain.len]);
        for step in 0..steps {
            let [a, b, c, d] = &cur;
            let [na, nb, nc, nd] = &mut next;
            pcr::pcr_step(1 << step, a, b, c, d, na, nb, nc, nd);
            std::mem::swap(&mut cur, &mut next);
        }
        for (vals, parent) in cur.iter().zip(out.iter_mut()) {
            chain.scatter(vals, parent);
        }
    }
}

/// The base kernel applied the way one block per chain does it: PCR down
/// to `t4` sub-chains, the lane-wise Thomas sweep, then the store of the
/// solution up to its first non-finite element. Returns how many blocks
/// failed on a broken lane (storing nothing) and how many on a non-finite
/// element (storing the elements before it).
fn per_chain_base<T: GpuScalar>(
    src: &[Vec<T>; 4],
    x: &mut [T],
    chains: &[ChainView],
    t4: usize,
) -> (usize, usize) {
    let (mut broken, mut short) = (0, 0);
    for chain in chains {
        let len = chain.len;
        let mut cur = src.each_ref().map(|v| chain.gather(v));
        let mut next = [(); 4].map(|()| vec![T::ZERO; len]);
        for step in 0..t4.trailing_zeros() {
            let [a, b, c, d] = &cur;
            let [na, nb, nc, nd] = &mut next;
            pcr::pcr_step(1 << step, a, b, c, d, na, nb, nc, nd);
            std::mem::swap(&mut cur, &mut next);
        }
        let lanes = LaneView {
            offset: 0,
            row_stride: t4,
            lanes: t4,
            len: len / t4,
        };
        let (mut lx, mut cp, mut broke) = (vec![T::ZERO; len], vec![T::ZERO; len], vec![false; t4]);
        let [a, b, c, d] = &cur;
        solve_thomas_lanes(&lanes, a, b, c, d, &mut lx, &mut cp, &mut broke);
        if broke.contains(&true) {
            broken += 1;
            continue;
        }
        let bad = lx.iter().position(|v| !v.is_finite());
        for (i, &v) in lx[..bad.unwrap_or(len)].iter().enumerate() {
            x[chain.index(i)] = v;
        }
        short += usize::from(bad.is_some());
    }
    (broken, short)
}

/// Bit equality, any NaN equal to any NaN.
fn same_bits<T: Scalar>(u: T, v: T) -> bool {
    let (u, v) = (u.to_f64(), v.to_f64());
    u.to_bits() == v.to_bits() || (u.is_nan() && v.is_nan())
}

/// Launch stage 2 (`t4 == None`) or the base kernel over `m` parents split
/// into `stride` chains of `chain_len` rows, through the plan op's
/// descriptor, on a plain device and on a sanitized one (which runs one
/// block at a time). The plain launch must store exactly the bits of the
/// per-chain body above and return the same verdict, and both devices must
/// charge the same `KernelStats` and fail the same way. Those stats are the
/// priced launch's, less what failing blocks skip: a block with a broken
/// lane its stage-4 barrier and its store, a block with a non-finite
/// element its store.
#[allow(clippy::too_many_arguments)]
fn chain_tiles_match<T: GpuScalar>(
    m: usize,
    stride: usize,
    chain_len: usize,
    steps: u32,
    t4: Option<usize>,
    variant: BaseVariant,
    plant: Plant,
    seed: u64,
) -> Result<(), String> {
    let n = stride * chain_len;
    let total = m * n;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut src = [(-1.0, 1.0), (2.5, 4.0), (-1.0, 1.0), (-10.0, 10.0)].map(|(lo, hi)| {
        (0..total)
            .map(|_| T::from_f64(rng.gen_range(lo..hi)))
            .collect::<Vec<T>>()
    });
    let chains: Vec<ChainView> = (0..m)
        .flat_map(|p| ChainView::chains_of(p * n, n, stride))
        .collect();
    let target = chains[rng.gen_range(0..chains.len())].index(chain_len / 2);
    match plant {
        Plant::None => {}
        Plant::ZeroRow => {
            for coeffs in &mut src[..3] {
                coeffs[target] = T::ZERO;
            }
        }
        Plant::NanRhs => src[3][target] = T::from_f64(f64::NAN),
    }
    let sentinel = T::from_f64(-7.25);

    let (op, outputs) = match t4 {
        None => (
            StageOp::Stage2Split {
                chains: m * stride,
                stride_in: stride,
                steps,
            },
            4,
        ),
        Some(t4) => (
            StageOp::BaseSolve {
                chains: m * stride,
                chain_len,
                stride,
                thomas_chains: t4,
                variant,
            },
            1,
        ),
    };
    let launch = |mut gpu: Gpu<T>| {
        let inputs = src.each_ref().map(|v| gpu.alloc_from(v).unwrap());
        let out: Vec<_> = (0..outputs)
            .map(|_| gpu.alloc_from(&vec![sentinel; total]).unwrap())
            .collect();
        let verdict = op
            .describe(m, n)
            .launch(&mut gpu, &inputs, &out)
            .map(|_| ())
            .map_err(|e| format!("{e:?}"));
        let stats = format!("{:?}", gpu.timeline());
        let totals = gpu.timeline()[0].totals;
        let bufs: Vec<Vec<T>> = out.iter().map(|&b| gpu.download(b).unwrap()).collect();
        (verdict, stats, totals, gpu.elapsed_s().to_bits(), bufs)
    };
    let (verdict, stats, totals, clock, bufs) = launch(Gpu::new(DeviceSpec::gtx_470()));
    let (verdict1, stats1, _, clock1, bufs1) = launch(Gpu::with_sanitizer(DeviceSpec::gtx_470()));
    prop_assert_eq!(&verdict, &verdict1);
    prop_assert_eq!(&stats, &stats1);
    prop_assert_eq!(clock, clock1);

    let mut want = [(); 4].map(|()| vec![sentinel; total]);
    let (broken, short) = match t4 {
        None => {
            per_chain_stage2(&src, &mut want, &chains, steps);
            (0, 0)
        }
        Some(t4) => per_chain_base(&src, &mut want[0], &chains, t4.min(chain_len)),
    };
    let failed = broken + short > 0;
    prop_assert!(verdict.is_err() == failed, "{:?}", verdict);
    let mut priced = op
        .describe(m, n)
        .price(&mut Gpu::<T>::new(DeviceSpec::gtx_470()))
        .unwrap()
        .totals;
    priced.barriers -= broken as f64;
    priced.gmem_write_bytes -= ((broken + short) * chain_len * std::mem::size_of::<T>()) as f64;
    prop_assert_eq!(totals.barriers, priced.barriers);
    prop_assert_eq!(totals.gmem_write_bytes, priced.gmem_write_bytes);
    if !failed {
        prop_assert_eq!(totals, priced);
    }
    if t4.is_some() && plant != Plant::None {
        prop_assert!(failed, "the planted breakdown must fail the launch");
    }
    for (got, got1, want) in bufs
        .iter()
        .zip(&bufs1)
        .zip(&want)
        .map(|((g, g1), w)| (g, g1, w))
    {
        for i in 0..total {
            prop_assert!(
                same_bits(got[i], want[i]),
                "element {}: {:?} vs {:?}",
                i,
                got[i],
                want[i]
            );
            prop_assert!(same_bits(got1[i], want[i]), "sanitized element {}", i);
        }
    }
    Ok(())
}

/// The contiguous tiles, where a tile is every chain of its parent
/// (`lanes == stride`: strides below one cache line, stride 1 included)
/// and is read from the launch input in place, each case on purpose
/// rather than by draw: stage 2 at every step count, and the base kernel
/// with and without PCR steps, clean and with a failing block. A block
/// whose sweep breaks stores nothing and one with a non-finite element
/// stores the rows before it, so those tiles take the per-row store; the
/// others store the whole tile as one copy.
#[test]
fn contiguous_chain_tiles_match_per_chain() {
    let check = |stride, steps, t4, variant, plant, seed| {
        chain_tiles_match::<f32>(3, stride, 64, steps, t4, variant, plant, seed).unwrap();
        chain_tiles_match::<f64>(3, stride, 64, steps, t4, variant, plant, seed).unwrap();
    };
    for (seed, stride) in [1, 2, 4, 8].into_iter().enumerate() {
        for plant in [Plant::None, Plant::ZeroRow, Plant::NanRhs] {
            for steps in 1..=3 {
                check(
                    stride,
                    steps,
                    None,
                    BaseVariant::Strided,
                    plant,
                    seed as u64,
                );
            }
            for t4 in [1, 4] {
                check(
                    stride,
                    1,
                    Some(t4),
                    BaseVariant::Coalesced,
                    plant,
                    seed as u64,
                );
            }
        }
    }
}

/// Decode one drawn case for [`chain_tiles_match`]: parents of at most
/// 16K rows, `t4_log == 8` selecting stage 2, and `t4` and the step count
/// clamped to the chain.
#[allow(clippy::too_many_arguments)]
fn chain_tile_case<T: GpuScalar>(
    m: usize,
    stride_log: u32,
    len_log: u32,
    steps: u32,
    t4_log: u32,
    strided: bool,
    plant: u8,
    seed: u64,
) -> Result<(), String> {
    let len_log = len_log.min(14 - stride_log);
    let variant = if strided {
        BaseVariant::Strided
    } else {
        BaseVariant::Coalesced
    };
    chain_tiles_match::<T>(
        m,
        1 << stride_log,
        1 << len_log,
        steps.min(len_log),
        (t4_log < 8).then(|| 1 << t4_log.min(len_log)),
        variant,
        [Plant::None, Plant::ZeroRow, Plant::NanRhs][plant as usize],
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn chain_tiles_match_per_chain_f32(
        m in 1usize..=3,
        stride_log in 0u32..=9,
        len_log in 1u32..=7,
        (steps, t4_log, strided) in (1u32..=4, 0u32..=8, prop::bool::ANY),
        plant in 0u8..3,
        seed in any::<u64>(),
    ) {
        chain_tile_case::<f32>(m, stride_log, len_log, steps, t4_log, strided, plant, seed)?;
    }

    #[test]
    fn chain_tiles_match_per_chain_f64(
        m in 1usize..=3,
        stride_log in 0u32..=9,
        len_log in 1u32..=7,
        (steps, t4_log, strided) in (1u32..=4, 0u32..=8, prop::bool::ANY),
        plant in 0u8..3,
        seed in any::<u64>(),
    ) {
        chain_tile_case::<f64>(m, stride_log, len_log, steps, t4_log, strided, plant, seed)?;
    }
}
