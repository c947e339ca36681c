//! Ablation: the three answers to strided chains (§III-A extended) as the
//! stride grows — the paper's two base-kernel variants plus the repack
//! pipeline (tiled transpose → unit-stride base kernel → transpose back).
//!
//! The crossover structure is the point: coalesced over-fetch wins at small
//! strides, the capped-waste strided gather wins at large strides, and the
//! repack pipeline's two extra passes pay off in between / at scale —
//! a tuner-decidable three-way choice.
//!
//! `cargo run --release -p trisolve-bench --bin ablation_repack`

use trisolve_bench::report;
use trisolve_core::kernels::{repack_chains, unpack_solution, CoeffBuffers};
use trisolve_core::{BaseVariant, StageOp};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

fn coeffs(
    gpu: &mut Gpu<f32>,
    total: usize,
    batch: &trisolve_tridiag::SystemBatch<f32>,
) -> CoeffBuffers {
    let _ = total;
    [
        gpu.alloc_from(&batch.a).unwrap(),
        gpu.alloc_from(&batch.b).unwrap(),
        gpu.alloc_from(&batch.c).unwrap(),
        gpu.alloc_from(&batch.d).unwrap(),
    ]
}

fn main() {
    let device = DeviceSpec::gtx_470();
    let chain_len = 512usize;
    println!(
        "three-way layout ablation on {} (chain length {chain_len}, f32)\n",
        device.name()
    );

    let mut rows = Vec::new();
    for stride in [2usize, 4, 8, 16, 32, 64] {
        let n = chain_len * stride;
        let m = (4096 / stride).max(2);
        let total = m * n;
        let batch = random_dominant::<f32>(WorkloadShape::new(m, n), 7).unwrap();

        // The base kernel over `systems` systems split into `stride`
        // chains of `chain_len`, Thomas switch 128.
        let base = |systems: usize, stride: usize, variant| StageOp::BaseSolve {
            chains: systems * stride,
            chain_len,
            stride,
            thomas_chains: 128,
            variant,
        };

        // Variant A: strided gather.
        let run_variant = |variant: BaseVariant| {
            let mut gpu: Gpu<f32> = Gpu::new(device.clone());
            let src = coeffs(&mut gpu, total, &batch);
            let x = gpu.alloc(total).unwrap();
            base(m, stride, variant)
                .describe(m, n)
                .launch(&mut gpu, &src, &[x])
                .unwrap();
            gpu.elapsed_s() * 1e3
        };
        let t_strided = run_variant(BaseVariant::Strided);
        let t_coalesced = run_variant(BaseVariant::Coalesced);

        // Variant C: repack -> unit-stride solve -> unpack.
        let t_repack = {
            let mut gpu: Gpu<f32> = Gpu::new(device.clone());
            let src = coeffs(&mut gpu, total, &batch);
            let packed = [
                gpu.alloc(total).unwrap(),
                gpu.alloc(total).unwrap(),
                gpu.alloc(total).unwrap(),
                gpu.alloc(total).unwrap(),
            ];
            let xp = gpu.alloc(total).unwrap();
            let xo = gpu.alloc(total).unwrap();
            repack_chains(&mut gpu, src, packed, m, n, stride).unwrap();
            base(m * stride, 1, BaseVariant::Strided)
                .describe(m * stride, chain_len)
                .launch(&mut gpu, &packed, &[xp])
                .unwrap();
            unpack_solution(&mut gpu, xp, xo, m, n, stride).unwrap();
            gpu.elapsed_s() * 1e3
        };

        let best = t_strided.min(t_coalesced).min(t_repack);
        let winner = if best == t_strided {
            "strided"
        } else if best == t_coalesced {
            "coalesced"
        } else {
            "repack"
        };
        rows.push(vec![
            stride.to_string(),
            report::ms(t_strided),
            report::ms(t_coalesced),
            report::ms(t_repack),
            winner.into(),
        ]);
    }
    println!(
        "{}",
        report::render_table(
            "simulated ms per full solve of the chain batch",
            &[
                "stride",
                "strided gather",
                "coalesced over-fetch",
                "repack pipeline",
                "winner"
            ],
            &rows
        )
    );
    println!(
        "The paper resolves the strided/coalesced pair empirically (§IV-D); the\n\
         repack pipeline is the natural third candidate and slots into the same\n\
         tuned decision."
    );
}
