//! The heap-allocation columns of the bench-regression gate, end to end.
//! This test binary runs the counting allocator, as the `snapshot` and
//! `trisolve` binaries do, and holds a single test, so nothing else
//! allocates while a solve is counted.

use trisolve_bench::alloc::CountingAlloc;
use trisolve_bench::regress::{compare_against, Tolerances};
use trisolve_bench::snapshot::measure_workload;
use trisolve_gpu_sim::DeviceSpec;
use trisolve_tridiag::workloads::WorkloadShape;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn allocation_counts_repeat_and_one_planted_allocation_fails_the_gate() {
    let dev = DeviceSpec::paper_devices().into_iter().next().unwrap();
    let name = dev.queryable().name.clone();
    let shape = WorkloadShape::new(64, 512);
    let counts = measure_workload(&dev, shape)
        .host_allocs
        .expect("this process counts allocations");
    assert!(counts.allocs > 0 && counts.bytes > 0);
    let tol = Tolerances::default();
    let regressed = |allocs: u64, bytes: u64| -> Vec<&'static str> {
        let doc = serde_json::json!({
            "devices": [serde_json::json!({
                "device": name.clone(),
                "workloads": [serde_json::json!({
                    "systems": 64,
                    "size": 512,
                    "host_allocs": allocs,
                    "host_alloc_bytes": bytes,
                })],
            })],
        });
        let report = compare_against(&doc, false, &tol).unwrap();
        assert_eq!(report.cases[0].checks.len(), 2, "{}", report.render());
        report.regressions().iter().map(|(_, k)| k.metric).collect()
    };
    // The gate re-measures: the counts repeat exactly.
    assert!(regressed(counts.allocs, counts.bytes).is_empty());
    // One allocation or one byte more than the baseline fails, and so does
    // one fewer (a behaviour change: re-snapshot it).
    let (a, b) = (counts.allocs, counts.bytes);
    assert_eq!(regressed(a - 1, b), ["host_allocs"]);
    assert_eq!(regressed(a, b - 1), ["host_alloc_bytes"]);
    assert_eq!(regressed(a + 1, b + 8), ["host_allocs", "host_alloc_bytes"]);
}
