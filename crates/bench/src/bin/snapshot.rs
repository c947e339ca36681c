//! Machine-readable benchmark snapshot: per-device, per-workload solve
//! costs for all three tuners, trace-derived counters, per-family
//! latency percentiles and roofline attribution, the many-small layout
//! comparison, and the stability-gate demonstration. Thin wrapper over
//! [`trisolve_bench::snapshot::snapshot_doc`].
//!
//! Prints one JSON document to stdout; `scripts/bench_snapshot.sh` wraps
//! this into numbered `BENCH_<n>.json` files for regression comparison.
//! Simulated metrics are deterministic (fixed seed, simulated clock);
//! the `*_wall_ms` columns are host wall-clock and vary run to run.
//!
//! The process counts its heap allocations, for the tuned solve's
//! `host_allocs` and `host_alloc_bytes` columns.
//!
//! `cargo run --release -p trisolve-bench --bin snapshot [-- --quick]`

#[global_allocator]
static ALLOC: trisolve_bench::alloc::CountingAlloc = trisolve_bench::alloc::CountingAlloc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let doc = trisolve_bench::snapshot::snapshot_doc(quick);
    println!("{}", serde_json::to_string_pretty(&doc).unwrap());
}
