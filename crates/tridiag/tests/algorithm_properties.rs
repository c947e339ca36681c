//! Property tests over the tridiagonal algorithm substrate: every solver
//! agrees with every other on arbitrary diagonally dominant systems, and the
//! PCR splitting algebra preserves solutions through arbitrary schedules.

use proptest::prelude::*;
use trisolve_tridiag::system::{ChainView, TridiagonalSystem};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};
use trisolve_tridiag::{cr, hybrid, lu, norms, pcr, thomas};

/// Strategy: an arbitrary strictly diagonally dominant system.
fn dominant_system() -> impl Strategy<Value = TridiagonalSystem<f64>> {
    (1usize..300, any::<u64>()).prop_map(|(n, seed)| {
        random_dominant::<f64>(WorkloadShape::new(1, n), seed)
            .unwrap()
            .system(0)
            .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_solvers_agree(sys in dominant_system()) {
        let x_lu = lu::solve_lu(&sys).unwrap();
        let x_th = thomas::solve_thomas(&sys).unwrap();
        let x_cr = cr::solve_cr(&sys).unwrap();
        let x_pcr = pcr::solve_pcr(&sys).unwrap();
        for (name, x) in [("thomas", &x_th), ("cr", &x_cr), ("pcr", &x_pcr)] {
            let d = norms::max_abs_diff(x, &x_lu);
            prop_assert!(d < 1e-7, "{name} deviates from LU by {d:.3e}");
        }
    }

    #[test]
    fn hybrids_agree_for_any_switch_point(sys in dominant_system()) {
        let x_lu = lu::solve_lu(&sys).unwrap();
        let n = sys.len();
        let mut k = 1usize;
        while k <= n.next_power_of_two() {
            let x = hybrid::solve_pcr_thomas(&sys, k).unwrap();
            let d = norms::max_abs_diff(&x, &x_lu);
            prop_assert!(d < 1e-7, "pcr-thomas k={k} deviates {d:.3e}");
            k *= 4;
        }
        for t in [1usize, 8, 64] {
            let x = hybrid::solve_cr_pcr(&sys, t).unwrap();
            let d = norms::max_abs_diff(&x, &x_lu);
            prop_assert!(d < 1e-7, "cr-pcr t={t} deviates {d:.3e}");
        }
    }

    #[test]
    fn pcr_split_preserves_solution_for_any_depth(
        sys in dominant_system(),
        steps in 0u32..6,
    ) {
        let direct = thomas::solve_thomas(&sys).unwrap();
        let via_split = pcr::solve_pcr_then_thomas(&sys, steps).unwrap();
        let d = norms::max_abs_diff(&direct, &via_split);
        prop_assert!(d < 1e-7, "deviation {d:.3e} at {steps} steps");
    }

    #[test]
    fn pcr_split_chains_are_decoupled(sys in dominant_system(), steps in 1u32..5) {
        // After splitting, solving any single chain in isolation must give
        // the same values as the full solution restricted to that chain.
        let split = pcr::pcr_split(&sys, steps).unwrap();
        let full = thomas::solve_thomas(&sys).unwrap();
        let mut scratch = thomas::ChainScratch::new();
        let mut x = vec![0.0f64; sys.len()];
        for chain in split.chains() {
            thomas::solve_thomas_chain(
                &chain, &split.a, &split.b, &split.c, &split.d, &mut x, &mut scratch,
            ).unwrap();
            for i in 0..chain.len {
                let g = chain.index(i);
                prop_assert!((x[g] - full[g]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn residual_certifies_every_solver(sys in dominant_system()) {
        for x in [
            lu::solve_lu(&sys).unwrap(),
            thomas::solve_thomas(&sys).unwrap(),
            cr::solve_cr(&sys).unwrap(),
        ] {
            let r = norms::relative_residual(&sys, &x).unwrap();
            prop_assert!(r < 1e-11, "relative residual {r:.3e}");
        }
    }

    #[test]
    fn chain_views_partition_any_parent(n in 1usize..500, stride in 1usize..40) {
        let chains = ChainView::chains_of(0, n, stride);
        let mut hits = vec![0u8; n];
        for c in &chains {
            for i in 0..c.len {
                hits[c.index(i)] += 1;
            }
        }
        prop_assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn matvec_of_solution_recovers_rhs(sys in dominant_system()) {
        let x = lu::solve_lu(&sys).unwrap();
        let y = sys.matvec(&x).unwrap();
        for (yi, di) in y.iter().zip(&sys.d) {
            prop_assert!((yi - di).abs() < 1e-8);
        }
    }

    #[test]
    fn batch_solvers_match_per_system_solves(
        m in 1usize..8,
        n in 1usize..64,
        seed in any::<u64>(),
    ) {
        use trisolve_tridiag::cpu_batch::{
            solve_batch_parallel, solve_batch_scoped, solve_batch_sequential, BatchAlgorithm,
        };
        let batch = random_dominant::<f64>(WorkloadShape::new(m, n), seed).unwrap();
        let seq = solve_batch_sequential(&batch, BatchAlgorithm::Lu).unwrap();
        let par = solve_batch_parallel(&batch, BatchAlgorithm::Lu).unwrap();
        let two = solve_batch_scoped(&batch, BatchAlgorithm::Lu, 2).unwrap();
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(&seq, &two);
        for s in 0..m {
            let sys = batch.system(s).unwrap();
            let x = lu::solve_lu(&sys).unwrap();
            prop_assert_eq!(&seq[s * n..(s + 1) * n], &x[..]);
        }
    }
}
