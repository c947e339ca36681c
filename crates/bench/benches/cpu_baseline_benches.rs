//! Criterion benches of the *real* (wall-clock) CPU baseline solvers — the
//! Rust analogue of the paper's MKL runs. These are genuine measurements,
//! not simulations: the batched LU/Thomas drivers from
//! `trisolve_tridiag::cpu_batch` on this machine, and (`pcr_ladder`) the
//! per-step cost of the PCR row kernel every splitting stage runs.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use trisolve_tridiag::cpu_batch::{
    solve_batch_parallel, solve_batch_scoped, solve_batch_sequential, BatchAlgorithm,
};
use trisolve_tridiag::pcr::{pcr_split, pcr_step, pcr_steps_f32_grid, row_kernel_width};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_single_thread");
    let shape = WorkloadShape::new(64, 1024);
    let batch = random_dominant::<f64>(shape, 1).unwrap();
    group.throughput(Throughput::Elements(shape.total_equations() as u64));
    for (name, algo) in [
        ("lu_gtsv_style", BatchAlgorithm::Lu),
        ("thomas", BatchAlgorithm::Thomas),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &algo, |b, &algo| {
            b.iter(|| solve_batch_sequential(&batch, algo).unwrap());
        });
    }
    group.finish();
}

fn bench_parallel_drivers(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_batch_drivers");
    group.sample_size(20);
    let shape = WorkloadShape::new(256, 1024);
    let batch = random_dominant::<f64>(shape, 2).unwrap();
    group.throughput(Throughput::Elements(shape.total_equations() as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| solve_batch_sequential(&batch, BatchAlgorithm::Lu).unwrap());
    });
    group.bench_function("rayon", |b| {
        b.iter(|| solve_batch_parallel(&batch, BatchAlgorithm::Lu).unwrap());
    });
    group.bench_function("two_threads_openmp_style", |b| {
        b.iter(|| solve_batch_scoped(&batch, BatchAlgorithm::Lu, 2).unwrap());
    });
    group.finish();
}

/// Rows per `pcr_ladder` sample, so every step reads directly as ns/row.
const LADDER_ROWS: usize = 1 << 16;

/// f32 `pcr_step`, one benchmark per PCR step, on `random_dominant`
/// inputs: a 64K-row system over steps 0–7, and the 512-row chains the
/// `batch-1Kx1K` base kernel splits (each the stride-2 chain of a 1024-row
/// system after one step, 128 chains per sample) over their steps 0–6.
/// The off-diagonals reach the f32 subnormal range on the late steps
/// (64K steps 5–6, 512 steps 4–5), where x86 pays a microcode assist per
/// instruction that touches a subnormal. Those steps run the row update in
/// `f64`, which takes no assist, and skip the operations a bound proves
/// exact: the first keeps `b` and `d`, the second is copies and signed
/// zeros (DESIGN §3.17). `512/steps4+5_resident` times the 512 ladder's two
/// subnormal steps as the base kernel runs them, resident in `f64`
/// (`pcr_steps_f32_grid`): its time compares with the sum of `step4` and
/// `step5`.
fn bench_pcr_ladder(c: &mut Criterion) {
    println!("pcr_ladder: {} row kernel", row_kernel_width());
    let mut group = c.benchmark_group("pcr_ladder");
    group.throughput(Throughput::Elements(LADDER_ROWS as u64));
    let big = random_dominant::<f32>(WorkloadShape::new(1, LADDER_ROWS), 1).unwrap();
    ladder(&mut group, "64K", vec![[big.a, big.b, big.c, big.d]], 8, 0);

    let n = 1024;
    let batch = random_dominant::<f32>(WorkloadShape::new(LADDER_ROWS / n, n), 1).unwrap();
    let chains = (0..batch.num_systems)
        .flat_map(|s| {
            let split = pcr_split(&batch.system(s).unwrap(), 1).unwrap();
            split
                .chains()
                .into_iter()
                .map(|ch| [&split.a, &split.b, &split.c, &split.d].map(|v| ch.gather(v)))
                .collect::<Vec<_>>()
        })
        .collect();
    let at_step4 = ladder(&mut group, "512", chains, 7, 4);
    let (mut out, mut last) = (at_step4.clone(), at_step4.clone());
    let mut wide = Vec::new();
    group.bench_function(BenchmarkId::new("512", "steps4+5_resident"), |b| {
        b.iter(|| {
            for ((src, dst), [oa, ob, oc, od]) in at_step4.iter().zip(&mut out).zip(&mut last) {
                let ran = {
                    let src = src.each_ref().map(|v| &v[..]);
                    let dst = dst.each_mut().map(|v| &mut v[..]);
                    pcr_steps_f32_grid(16, 2, src, dst, &mut wide)
                };
                // A chain whose step 5 probes normal runs it natively, as
                // the base kernel does.
                if ran == 1 {
                    let [a, b, c, d] = &*dst;
                    pcr_step(32, a, b, c, d, oa, ob, oc, od);
                }
            }
        });
    });
    group.finish();
}

/// Time steps `0..steps` of PCR on `systems`, each step on the previous
/// step's output; returns the input of step `keep`.
fn ladder(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    mut systems: Vec<[Vec<f32>; 4]>,
    steps: u32,
    keep: u32,
) -> Vec<[Vec<f32>; 4]> {
    let mut next = systems.clone();
    let mut kept = Vec::new();
    for k in 0..steps {
        if k == keep {
            kept = systems.clone();
        }
        let stride = 1 << k;
        group.bench_function(BenchmarkId::new(name, format!("step{k}")), |b| {
            b.iter(|| {
                for ([a, b, c, d], [oa, ob, oc, od]) in systems.iter().zip(&mut next) {
                    pcr_step(stride, a, b, c, d, oa, ob, oc, od);
                }
            });
        });
        std::mem::swap(&mut systems, &mut next);
    }
    kept
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_parallel_drivers,
    bench_pcr_ladder
);
criterion_main!(benches);
