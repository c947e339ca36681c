//! Ablation for §III-A: the paper's PCR-Thomas hybrid against Zhang et
//! al.'s CR-PCR hybrid (the prior-art base kernel), in single and double
//! precision.
//!
//! The claim: "Compared to Zhang et al.'s best (CR-PCR) hybrid algorithm,
//! our work has similar performance for single-precision systems and better
//! performance for double-precision systems; our primary advantage is
//! leveraging the superior work efficiency of the Thomas algorithm."
//!
//! We compare along two axes:
//! * **work**: thread-operation counts of the two hybrids (analytic models
//!   verified by the unit tests);
//! * **simulated time**: the PCR-Thomas base kernel in f32 vs f64, showing
//!   the f64 shared-memory (bank-conflict) penalty the CR-PCR formulation
//!   suffers more from (it does more shared-memory traffic per equation).
//!
//! `cargo run --release -p trisolve-bench --bin ablation_hybrid`

use trisolve_bench::report;
use trisolve_core::kernels::GpuScalar;
use trisolve_core::{solver, SolverParams};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};
use trisolve_tridiag::{hybrid, pcr};

fn time_base_kernel<T: GpuScalar>(device: &DeviceSpec, m: usize, n: usize, t4: usize) -> f64 {
    let batch = random_dominant::<T>(WorkloadShape::new(m, n), 11).unwrap();
    let mut gpu: Gpu<T> = Gpu::new(device.clone());
    let params = SolverParams {
        stage1_target_systems: 16,
        onchip_size: n,
        thomas_switch: t4,
        variant: trisolve_core::BaseVariant::Strided,
    };
    solver::solve_batch_on_gpu(&mut gpu, &batch, &params)
        .unwrap()
        .sim_time_ms()
}

fn time_baseline<T: GpuScalar>(
    device: &DeviceSpec,
    m: usize,
    n: usize,
    algo: trisolve_core::kernels::BaselineAlgo,
) -> f64 {
    use trisolve_core::kernels::baseline_solve;
    let batch = random_dominant::<T>(WorkloadShape::new(m, n), 11).unwrap();
    let mut gpu: Gpu<T> = Gpu::new(device.clone());
    let src = [
        gpu.alloc_from(&batch.a).unwrap(),
        gpu.alloc_from(&batch.b).unwrap(),
        gpu.alloc_from(&batch.c).unwrap(),
        gpu.alloc_from(&batch.d).unwrap(),
    ];
    let x = gpu.alloc(m * n).unwrap();
    baseline_solve(&mut gpu, src, x, m, n, n, 1, algo).map_or(f64::INFINITY, |s| s.total_time_ms())
}

fn main() {
    println!("== work-efficiency comparison (thread-operations per system) ==");
    let rows: Vec<Vec<String>> = [256usize, 512, 1024, 4096]
        .iter()
        .map(|&n| {
            let pcr_thomas = hybrid::pcr_thomas_ops(n, 128.min(n));
            let cr_pcr = hybrid::cr_pcr_ops(n, 64.min(n));
            let pure_pcr = pcr::pcr_flops(n, pcr::ceil_log2(n));
            vec![
                n.to_string(),
                pcr_thomas.to_string(),
                cr_pcr.to_string(),
                pure_pcr.to_string(),
                format!("{:.2}", pure_pcr as f64 / pcr_thomas as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            "operations per system",
            &[
                "n",
                "PCR-Thomas",
                "CR-PCR (Zhang)",
                "pure PCR",
                "PCR/PCR-Thomas"
            ],
            &rows
        )
    );

    println!("== precision sensitivity of the base kernel (GTX 280, 16-bank shared memory) ==");
    let dev = DeviceSpec::gtx_280();
    let rows: Vec<Vec<String>> = [(2048usize, 256usize), (4096, 512)]
        .iter()
        .map(|&(m, n)| {
            let f32_ms = time_base_kernel::<f32>(&dev, m, n, 64.min(n));
            let f64_ms = time_base_kernel::<f64>(&dev, m, n, 64.min(n));
            vec![
                format!("{m}x{n}"),
                report::ms(f32_ms),
                report::ms(f64_ms),
                format!("{:.2}x", f64_ms / f32_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            "f32 vs f64 base kernel",
            &["workload", "f32 ms", "f64 ms", "penalty"],
            &rows
        )
    );

    println!("== on-chip kernels head to head (simulated ms, machine-filling batch) ==");
    use trisolve_core::kernels::BaselineAlgo;
    for dev in [DeviceSpec::gtx_280(), DeviceSpec::gtx_470()] {
        let n = SolverParams::max_onchip_size(dev.queryable(), 4);
        let m = 32 * dev.queryable().num_processors;
        let rows: Vec<Vec<String>> = [("f32", true), ("f64", false)]
            .iter()
            .map(|&(prec, single)| {
                let (ours, pcr, cr, crpcr) = if single {
                    (
                        time_base_kernel::<f32>(&dev, m, n, 128.min(n)),
                        time_baseline::<f32>(&dev, m, n, BaselineAlgo::Pcr),
                        time_baseline::<f32>(&dev, m, n, BaselineAlgo::Cr),
                        time_baseline::<f32>(&dev, m, n, BaselineAlgo::CrPcr { pcr_threshold: 64 }),
                    )
                } else {
                    let n = SolverParams::max_onchip_size(dev.queryable(), 8);
                    (
                        time_base_kernel::<f64>(&dev, m, n, 128.min(n)),
                        time_baseline::<f64>(&dev, m, n, BaselineAlgo::Pcr),
                        time_baseline::<f64>(&dev, m, n, BaselineAlgo::Cr),
                        time_baseline::<f64>(&dev, m, n, BaselineAlgo::CrPcr { pcr_threshold: 64 }),
                    )
                };
                vec![
                    prec.to_string(),
                    report::ms(ours),
                    report::ms(crpcr),
                    report::ms(pcr),
                    report::ms(cr),
                    format!("{:.2}x", crpcr / ours),
                ]
            })
            .collect();
        println!(
            "{}",
            report::render_table(
                dev.name(),
                &[
                    "precision",
                    "PCR-Thomas (ours)",
                    "CR-PCR (Zhang)",
                    "pure PCR",
                    "pure CR",
                    "Zhang/ours"
                ],
                &rows
            )
        );
    }
    println!(
        "Paper claim (SIII-A): similar performance in single precision, better in double\n\
         precision - the Thomas phase makes fewer (bank-conflicting) shared accesses."
    );
    println!(
        "The f64 penalty exceeds the 2x data-volume factor because 64-bit shared\n\
         accesses serialise on 32-bit banks — the effect that favours the\n\
         Thomas-heavy hybrid (fewer shared accesses per equation) in double\n\
         precision, as §III-A claims."
    );
}
