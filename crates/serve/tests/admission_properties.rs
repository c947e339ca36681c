//! Property tests for the admission controller (ISSUE satellite):
//!
//! 1. **Deadline safety** — across random seeds, load scales, and fault
//!    schedules, no accepted request ever completes after its deadline on
//!    the simulated clock, and every submission gets a disposition.
//! 2. **Shed monotonicity** — the shed rate is monotone (non-decreasing)
//!    in offered load for the same request mix.
//! 3. **Arbitrary requests** — NaN, infinite or negative arrival times and
//!    deadlines, zero or large shapes and any class parameter never panic
//!    the service, and every request still gets exactly one disposition.

use proptest::prelude::*;
use trisolve_serve::{
    generate, Disposition, LayoutPref, LoadProfile, Precision, ServiceConfig, SolveRequest,
    SolveService,
};
use trisolve_tridiag::workloads::{WorkloadClass, WorkloadShape};

fn run_campaign(requests: usize, seed: u64, load_scale: f64, chaos: bool) -> CampaignCheck {
    let profile = LoadProfile {
        requests,
        seed,
        load_scale,
        chaos,
    };
    let workload = generate(&profile);
    let mut svc = SolveService::new(workload.config);
    let report = svc.run(&workload.requests);
    let mut late = 0u64;
    for (req, disp) in workload.requests.iter().zip(&report.dispositions) {
        if let Disposition::Completed(done) = disp {
            if done.at_s > req.deadline_s {
                late += 1;
            }
        }
    }
    CampaignCheck {
        submitted: report.stats.submitted,
        completed: report.stats.completed,
        shed: report.stats.shed_total(),
        lost: report.stats.lost(),
        late,
        deadline_misses: report.stats.deadline_misses,
        bound_violations: report.stats.bound_violations,
    }
}

struct CampaignCheck {
    submitted: u64,
    completed: u64,
    shed: u64,
    lost: u64,
    late: u64,
    deadline_misses: u64,
    bound_violations: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn no_accepted_request_completes_after_its_deadline(
        seed in any::<u64>(),
        scale_tenths in 5u32..30,
        chaos in any::<bool>(),
    ) {
        let check = run_campaign(300, seed, f64::from(scale_tenths) / 10.0, chaos);
        // No completion past its deadline, the cost model never
        // under-estimated a window, and every request got a disposition.
        prop_assert_eq!(check.late, 0);
        prop_assert_eq!(check.deadline_misses, 0);
        prop_assert_eq!(check.bound_violations, 0);
        prop_assert_eq!(check.lost, 0);
        prop_assert_eq!(check.completed + check.shed, check.submitted);
    }

    #[test]
    fn shed_rate_is_monotone_in_offered_load(seed in any::<u64>()) {
        // Same request mix, arrival rate scaled 4× apart each step: a
        // strictly busier offer sheds at least as large a fraction.
        // Adjacent steps tolerate a few requests of discreteness (queue
        // snapshots at admission differ between runs), but the low→high
        // trend must strictly rise.
        let mut rates = Vec::new();
        for scale in [0.5, 2.0, 8.0, 32.0] {
            let check = run_campaign(800, seed, scale, false);
            prop_assert_eq!(check.lost, 0);
            let slack = 3.0 / check.submitted as f64;
            let rate = check.shed as f64 / check.submitted as f64;
            if let Some(&last) = rates.last() {
                prop_assert!(
                    rate >= last - slack,
                    "shed rate fell from {last} to {rate} at scale {scale}"
                );
            }
            rates.push(rate);
        }
        prop_assert!(
            rates[rates.len() - 1] > rates[0],
            "64× more offered load must shed strictly more: {rates:?}"
        );
    }
}

/// A time or class parameter: NaN, ±inf, zero, negative or (half the
/// time) an ordinary positive value.
fn any_f64() -> impl Strategy<Value = f64> {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0];
    (0usize..10, 0.0f64..100.0)
        .prop_map(move |(pick, x)| specials.get(pick).map_or(x, |s| s * x.max(1.0)))
}

/// A request with arbitrary field values: any time, class parameter,
/// precision and layout, and a shape of at most 2^22 equations, zero
/// systems and zero size included.
fn any_request() -> impl Strategy<Value = SolveRequest> {
    let shape = (0u32..=22, 0u8..4, 0usize..=1 << 22, 0usize..=1 << 22);
    let kind = (0usize..2, 0usize..4, 0u8..3, any_f64());
    (shape, kind, any_f64(), any_f64(), any::<u64>()).prop_map(
        |((log_n, pick, rn, rm), (precision, layout, class, p), arrival_s, deadline_s, seed)| {
            let n = [0, 1 << log_n]
                .get(usize::from(pick))
                .copied()
                .unwrap_or(rn >> (22 - log_n));
            let m = if pick == 3 {
                0
            } else {
                rm % ((1 << 22) / n.max(1) + 1)
            };
            SolveRequest {
                id: seed,
                shape: WorkloadShape::new(m, n),
                precision: [Precision::F32, Precision::F64][precision],
                layout: [
                    LayoutPref::Auto,
                    LayoutPref::Strided,
                    LayoutPref::Coalesced,
                    LayoutPref::Interleaved,
                ][layout],
                class: match class {
                    0 => WorkloadClass::Dominant,
                    1 => WorkloadClass::IllConditioned { margin: p },
                    _ => WorkloadClass::NonDominant { dominance: p },
                },
                arrival_s,
                deadline_s,
                seed,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_requests_each_get_one_disposition(
        requests in prop::collection::vec(any_request(), 1..5),
    ) {
        let report = SolveService::new(ServiceConfig::paper_fleet()).run(&requests);
        prop_assert_eq!(report.dispositions.len(), requests.len());
        prop_assert_eq!(report.stats.lost(), 0);
        let answered = report.stats.completed + report.stats.shed_total();
        prop_assert_eq!(answered, requests.len() as u64);
    }
}
