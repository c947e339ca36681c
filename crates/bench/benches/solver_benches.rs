//! Criterion benches of the multi-stage solver running on the simulator.
//!
//! Wall-clock time here measures the *simulator's* throughput (the
//! functional execution of the kernels); the paper-comparable numbers are
//! the *simulated* times printed by the `fig*` binaries. Keeping these under
//! `cargo bench` guards the simulation itself against performance
//! regressions — a slow simulator makes tuning runs impractical, which
//! matters because the dynamic tuner is a measurement loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use trisolve_autotune::tuners::clamp_to_device;
use trisolve_autotune::{DynamicTuner, Tuner};
use trisolve_core::engine::SolveSession;
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::{solve_batch_on_gpu, BaseVariant, SolverParams};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

fn params(s3: usize, t4: usize) -> SolverParams {
    SolverParams {
        stage1_target_systems: 16,
        onchip_size: s3,
        thomas_switch: t4,
        variant: BaseVariant::Strided,
    }
}

fn bench_base_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("base_kernel_only");
    for &(m, n) in &[(256usize, 256usize), (64, 512)] {
        let shape = WorkloadShape::new(m, n);
        let batch = random_dominant::<f32>(shape, 1).unwrap();
        group.throughput(Throughput::Elements(shape.total_equations() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.label()),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
                    solve_batch_on_gpu(&mut gpu, batch, &params(n, 64.min(n))).unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_pipeline");
    group.sample_size(10);
    for &(m, n) in &[(16usize, 4096usize), (1, 1 << 16)] {
        let shape = WorkloadShape::new(m, n);
        let batch = random_dominant::<f32>(shape, 2).unwrap();
        group.throughput(Throughput::Elements(shape.total_equations() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.label()),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
                    solve_batch_on_gpu(&mut gpu, batch, &params(512, 128)).unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("base_variants");
    let shape = WorkloadShape::new(32, 4096);
    let batch = random_dominant::<f32>(shape, 3).unwrap();
    for variant in [BaseVariant::Strided, BaseVariant::Coalesced] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{variant:?}")),
            &variant,
            |b, &variant| {
                b.iter(|| {
                    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
                    let p = SolverParams {
                        variant,
                        ..params(512, 64)
                    };
                    solve_batch_on_gpu(&mut gpu, &batch, &p).unwrap()
                });
            },
        );
    }
    group.finish();
}

/// A reused-session solve with the dynamically tuned plan, as the
/// two-clock benchmark runs it (tuning and the session stay outside the
/// timed loop).
fn bench_tuned_solve<T: GpuScalar>(c: &mut Criterion, shape: WorkloadShape, precision: &str) {
    let mut group = c.benchmark_group("strided_chains");
    let mut gpu: Gpu<T> = Gpu::new(DeviceSpec::gtx_470());
    let q = gpu.spec().queryable().clone();
    let mut tuner = DynamicTuner::new();
    tuner.tune_for(&mut gpu, shape);
    let params = clamp_to_device(
        tuner.params_for(shape, &q, elem_bytes::<T>()),
        &q,
        elem_bytes::<T>(),
    );
    let batch = random_dominant::<T>(shape, 2011).unwrap();
    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
    group.throughput(Throughput::Elements(shape.total_equations() as u64));
    group.bench_function(BenchmarkId::new(shape.label(), precision), |b| {
        b.iter(|| session.solve(&mut gpu, &batch, &params).unwrap());
    });
    group.finish();
}

/// The per-shape witness of chain tiles: stage 2 and the base kernel of
/// `1×512K` and `2×65536` run strided chains (stride 64 and 512 on
/// `1×512K`), which tiles of adjacent chains gather and store a cache line
/// at a time. `256×256` runs stride-1 chains only, so it is the control
/// that tiles must not move. `1K×1K` f32 is the two-clock benchmark's
/// `batch-1Kx1K` solve: contiguous tiles (stage 2 at stride 1, the base
/// kernel at stride 2), read in place and stored as one copy each.
fn bench_strided_chains(c: &mut Criterion) {
    for shape in [
        WorkloadShape::new(1, 512 * 1024),
        WorkloadShape::new(2, 65536),
        WorkloadShape::new(256, 256),
    ] {
        bench_tuned_solve::<f32>(c, shape, "f32");
        bench_tuned_solve::<f64>(c, shape, "f64");
    }
    bench_tuned_solve::<f32>(c, WorkloadShape::new(1024, 1024), "f32");
}

criterion_group!(
    benches,
    bench_base_kernel,
    bench_full_pipeline,
    bench_variants,
    bench_strided_chains
);
criterion_main!(benches);
