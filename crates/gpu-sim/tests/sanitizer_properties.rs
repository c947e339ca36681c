//! Property and fixture tests for the dynamic sanitizer: each class of
//! injected hazard (out-of-bounds, uninitialized read, inter-barrier race)
//! must be detected with the right kind and location, hazard-free kernels
//! must come back clean, and enabling the sanitizer must never change a
//! simulated timing.

use proptest::prelude::*;
use trisolve_gpu_sim::{
    DeviceSpec, Gpu, HazardKind, KernelStats, LaunchConfig, OutMode, Region, SanitizerReport,
};

/// A 1-block launch config with optional shared memory (in f32 elements).
fn cfg(label: &str, threads: usize, smem_elems: usize) -> LaunchConfig {
    LaunchConfig::new(label, 1, threads).with_shared_mem(smem_elems * 4)
}

/// Run one single-block kernel on a sanitizing device and return the report.
fn run_sanitized<F>(label: &str, smem_elems: usize, kernel: F) -> SanitizerReport
where
    F: Fn(&mut trisolve_gpu_sim::BlockCtx, &mut trisolve_gpu_sim::BlockIo<'_, f32>) + Sync,
{
    let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
    let input = gpu.alloc_from(&[1.0; 64]).unwrap();
    let out = gpu.alloc(64).unwrap();
    gpu.launch(
        &cfg(label, 32, smem_elems),
        &[input],
        &[(out, OutMode::Scattered)],
        kernel,
    )
    .unwrap();
    gpu.take_sanitizer_report().unwrap()
}

#[test]
fn injected_oob_load_detected_with_location() {
    let report = run_sanitized("oob-fixture[load]", 0, |_ctx, io| {
        // Input has 64 elements; index 100 is past the end.
        let v = io.load(0, 100, 7, "fixture::oob_load");
        assert_eq!(v, 0.0, "OOB load must return the default, not panic");
        io.scattered[0].set_at(0, v, 7, "fixture::store");
    });
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.kind, HazardKind::OutOfBounds);
    assert_eq!(h.region, Region::Input(0));
    assert_eq!(h.index, 100);
    assert_eq!(h.kernel, "oob-fixture[load]");
    assert_eq!(h.second.tid, 7);
    assert_eq!(h.second.site, "fixture::oob_load");
}

#[test]
fn injected_oob_scattered_store_detected_and_dropped() {
    let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
    let input = gpu.alloc_from(&[1.0; 8]).unwrap();
    let out = gpu.alloc(8).unwrap();
    gpu.launch(
        &cfg("oob-fixture[store]", 8, 0),
        &[input],
        &[(out, OutMode::Scattered)],
        |_ctx, io| {
            // In bounds, then past the end: the bad write must be dropped
            // (recorded, not a panic) and the good one must land.
            io.scattered[0].set_at(3, 42.0, 3, "fixture::good_store");
            io.scattered[0].set_at(9, 1.0, 4, "fixture::oob_store");
        },
    )
    .unwrap();
    let report = gpu.take_sanitizer_report().unwrap();
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.kind, HazardKind::OutOfBounds);
    assert_eq!(h.region, Region::ScatteredOut(0));
    assert_eq!(h.index, 9);
    assert!(h.second.write);
    assert_eq!(gpu.download(out).unwrap()[3], 42.0);
}

#[test]
fn injected_uninit_global_read_detected() {
    let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
    // `alloc` is a fresh cudaMalloc: zeroed in the simulator but *logically*
    // uninitialised until an upload or a kernel writes it.
    let never_written = gpu.alloc(16).unwrap();
    let out = gpu.alloc(16).unwrap();
    gpu.launch(
        &cfg("uninit-fixture[global]", 16, 0),
        &[never_written],
        &[(out, OutMode::Scattered)],
        |_ctx, io| {
            let v = io.load(0, 5, 5, "fixture::uninit_load");
            io.scattered[0].set_at(5, v, 5, "fixture::store");
        },
    )
    .unwrap();
    let report = gpu.take_sanitizer_report().unwrap();
    let uninit: Vec<_> = report
        .hazards
        .iter()
        .filter(|h| h.kind == HazardKind::UninitializedRead)
        .collect();
    assert_eq!(uninit.len(), 1, "{report}");
    assert_eq!(uninit[0].region, Region::Input(0));
    assert_eq!(uninit[0].index, 5);
    assert_eq!(uninit[0].second.site, "fixture::uninit_load");
}

#[test]
fn injected_uninit_smem_read_detected() {
    let report = run_sanitized("uninit-fixture[smem]", 8, |ctx, io| {
        // Element 2 is stored then read (fine); element 3 is read bare.
        ctx.track_smem_write(2, 0, "fixture::smem_store");
        ctx.sync();
        ctx.track_smem_read(2, 1, "fixture::smem_ok");
        ctx.track_smem_read(3, 1, "fixture::smem_uninit");
        io.scattered[0].set_at(0, 0.0, 0, "fixture::store");
    });
    let uninit: Vec<_> = report
        .hazards
        .iter()
        .filter(|h| h.kind == HazardKind::UninitializedRead)
        .collect();
    assert_eq!(uninit.len(), 1, "{report}");
    assert_eq!(uninit[0].region, Region::Shared);
    assert_eq!(uninit[0].index, 3);
}

#[test]
fn injected_interbarrier_race_detected_and_sync_cures_it() {
    // Two threads store the same shared element in one barrier interval:
    // write-write race, reported with both sites.
    let racy = run_sanitized("race-fixture[ww]", 8, |ctx, io| {
        ctx.track_smem_write(4, 0, "fixture::first_store");
        ctx.track_smem_write(4, 1, "fixture::second_store");
        io.scattered[0].set_at(0, 0.0, 0, "fixture::store");
    });
    let races: Vec<_> = racy
        .hazards
        .iter()
        .filter(|h| h.kind == HazardKind::RaceWriteWrite)
        .collect();
    assert_eq!(races.len(), 1, "{racy}");
    assert_eq!(races[0].region, Region::Shared);
    assert_eq!(races[0].index, 4);
    assert_eq!(races[0].first.unwrap().site, "fixture::first_store");
    assert_eq!(races[0].second.site, "fixture::second_store");

    // The same accesses separated by a barrier: happens-before, no race.
    let cured = run_sanitized("race-fixture[sync]", 8, |ctx, io| {
        ctx.track_smem_write(4, 0, "fixture::first_store");
        ctx.sync();
        ctx.track_smem_write(4, 1, "fixture::second_store");
        io.scattered[0].set_at(0, 0.0, 0, "fixture::store");
    });
    assert!(cured.is_clean(), "{cured}");
}

#[test]
fn injected_read_write_race_detected() {
    let report = run_sanitized("race-fixture[rw]", 8, |ctx, io| {
        ctx.track_smem_write(1, 0, "fixture::seed");
        ctx.sync();
        // Thread 0 reads element 1 while thread 1 overwrites it.
        ctx.track_smem_read(1, 0, "fixture::read");
        ctx.track_smem_write(1, 1, "fixture::write");
        io.scattered[0].set_at(0, 0.0, 0, "fixture::store");
    });
    let races: Vec<_> = report
        .hazards
        .iter()
        .filter(|h| h.kind == HazardKind::RaceReadWrite)
        .collect();
    assert_eq!(races.len(), 1, "{report}");
    assert_eq!(races[0].index, 1);
}

#[test]
fn hazard_free_kernel_reports_clean() {
    let report = run_sanitized("clean-fixture", 32, |ctx, io| {
        let mut staged = [0.0f32; 32];
        for (j, s) in staged.iter_mut().enumerate() {
            *s = io.load(0, j, j, "fixture::load");
            ctx.track_smem_write(j, j, "fixture::stage");
        }
        ctx.sync();
        for (j, s) in staged.iter().enumerate() {
            ctx.track_smem_read(j, j, "fixture::consume");
            io.scattered[0].set_at(j, *s, j, "fixture::store");
        }
    });
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.launches_checked, 1);
}

#[test]
fn report_accumulates_across_launches_and_take_resets() {
    let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
    let input = gpu.alloc_from(&[0.0; 8]).unwrap();
    let out = gpu.alloc(8).unwrap();
    for _ in 0..3 {
        gpu.launch(
            &cfg("accumulate", 8, 0),
            &[input],
            &[(out, OutMode::Scattered)],
            |_ctx, io| {
                let _ = io.load(0, 99, 0, "fixture::oob");
            },
        )
        .unwrap();
    }
    let report = gpu.take_sanitizer_report().unwrap();
    assert_eq!(report.launches_checked, 3);
    assert_eq!(report.hazards.len(), 3);
    // take() resets the report but the device keeps sanitizing.
    assert!(gpu.sanitizing());
    let fresh = gpu.sanitizer_report().unwrap();
    assert!(fresh.is_clean());
    assert_eq!(fresh.launches_checked, 0);
}

/// The same kernel run with and without the sanitizer: identical outputs and
/// a bit-identical simulated timeline. The shadow state must never leak into
/// the cost meters.
#[test]
fn sanitizer_never_perturbs_timing_or_results() {
    fn run(sanitize: bool) -> (Vec<f32>, Vec<KernelStats>, f64) {
        let spec = DeviceSpec::gtx_280();
        let mut gpu: Gpu<f32> = if sanitize {
            Gpu::with_sanitizer(spec)
        } else {
            Gpu::new(spec)
        };
        let data: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let input = gpu.alloc_from(&data).unwrap();
        let out = gpu.alloc(256).unwrap();
        gpu.launch(
            &LaunchConfig::new("identity[tracked]", 8, 32).with_shared_mem(32 * 4),
            &[input],
            &[(out, OutMode::Scattered)],
            |ctx, io| {
                let base = ctx.block_id as usize * 32;
                ctx.gmem_read(32, 1);
                for j in 0..32 {
                    let v = io.load(0, base + j, j, "identity::load");
                    ctx.track_smem_write(j, j, "identity::stage");
                    ctx.sync();
                    ctx.track_smem_read(j, j, "identity::consume");
                    io.scattered[0].set_at(base + j, v * 2.0, j, "identity::store");
                }
                ctx.ops(64);
                ctx.gmem_write(32, 1);
            },
        )
        .unwrap();
        let x = gpu.download(out).unwrap();
        (x, gpu.timeline().to_vec(), gpu.elapsed_s())
    }

    let (x_off, timeline_off, t_off) = run(false);
    let (x_on, timeline_on, t_on) = run(true);
    assert_eq!(x_off, x_on);
    assert_eq!(
        t_off.to_bits(),
        t_on.to_bits(),
        "clock must be bit-identical"
    );
    assert_eq!(timeline_off.len(), timeline_on.len());
    for (a, b) in timeline_off.iter().zip(&timeline_on) {
        assert_eq!(a.total_time_s().to_bits(), b.total_time_s().to_bits());
    }
}

/// `ScatterWriter::set_strided` under the sanitizer is the per-element
/// `set_at` loop with thread `j` writing element `j`: the same hazards
/// (OOB writes recorded and dropped, same-element writes by different
/// threads racechecked), the same written mask (seen by a follow-up
/// initcheck read of the whole output), and the same output bits.
#[test]
fn set_strided_tracks_exactly_the_set_at_loop() {
    // (start, stride, count): chains in bounds, past the end, and a zero
    // stride where every thread writes one element.
    let cases: [(usize, usize, usize); 5] =
        [(0, 1, 16), (3, 4, 8), (5, 7, 6), (9, 0, 3), (60, 1, 8)];
    fn run(
        bulk: bool,
        sanitize: bool,
        start: usize,
        stride: usize,
        n: usize,
    ) -> (SanitizerReport, Vec<u32>) {
        let spec = DeviceSpec::gtx_470();
        let mut gpu: Gpu<f32> = if sanitize {
            Gpu::with_sanitizer(spec)
        } else {
            Gpu::new(spec)
        };
        let out = gpu.alloc(64).unwrap();
        let vals: Vec<f32> = (0..n).map(|j| 1.5 + j as f32).collect();
        gpu.launch(
            &cfg("strided", 32, 0),
            &[],
            &[(out, OutMode::Scattered)],
            |_ctx, io| {
                if bulk {
                    io.scattered[0].set_strided(start, stride, &vals, "fixture::store");
                } else {
                    for (j, &v) in vals.iter().enumerate() {
                        io.scattered[0].set_at(start + j * stride, v, j, "fixture::store");
                    }
                }
            },
        )
        .unwrap();
        let copy = gpu.alloc(64).unwrap();
        gpu.launch(
            &cfg("readback", 32, 0),
            &[out],
            &[(copy, OutMode::Scattered)],
            |_ctx, io| {
                for i in 0..64 {
                    let v = io.load(0, i, i, "fixture::readback");
                    io.scattered[0].set_at(i, v, i, "fixture::copy");
                }
            },
        )
        .unwrap();
        let bits = gpu
            .download(out)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (gpu.take_sanitizer_report().unwrap_or_default(), bits)
    }
    for (start, stride, n) in cases {
        let (bulk, bulk_bits) = run(true, true, start, stride, n);
        let (looped, looped_bits) = run(false, true, start, stride, n);
        assert_eq!(bulk, looped, "start {start} stride {stride} n {n}");
        assert_eq!(bulk_bits, looped_bits);
        assert!(!bulk.is_clean(), "the readback sees unwritten elements");
        if start + n.saturating_sub(1) * stride < 64 {
            let (_, plain_bits) = run(true, false, start, stride, n);
            assert_eq!(
                plain_bits, bulk_bits,
                "sanitizing must not change the output"
            );
        } else {
            assert!(bulk
                .hazards
                .iter()
                .any(|h| h.kind == HazardKind::OutOfBounds));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// memcheck is exact: a tracked load trips iff the index is past the
    /// end, and never panics either way.
    #[test]
    fn oob_hazard_iff_index_past_end(len in 1usize..64, idx in 0usize..128) {
        let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
        let input = gpu.alloc_from(&vec![1.0f32; len]).unwrap();
        let out = gpu.alloc(len).unwrap();
        gpu.launch(
            &cfg("prop[oob]", 1, 0),
            &[input],
            &[(out, OutMode::Scattered)],
            |_ctx, io| {
                let _ = io.load(0, idx, 0, "prop::load");
            },
        ).unwrap();
        let report = gpu.take_sanitizer_report().unwrap();
        let oob = report.hazards.iter().filter(|h| h.kind == HazardKind::OutOfBounds).count();
        prop_assert!(oob == usize::from(idx >= len), "len {len} idx {idx}: {report}");
    }

    /// racecheck is exact on a two-access pattern: a hazard iff the threads
    /// differ, at least one access writes, and no barrier separates them.
    #[test]
    fn race_iff_conflicting_threads_share_an_interval(
        tid_a in 0usize..4,
        tid_b in 0usize..4,
        a_writes in any::<bool>(),
        b_writes in any::<bool>(),
        barrier_between in any::<bool>(),
    ) {
        let report = run_sanitized("prop[race]", 8, |ctx, io| {
            // Seed the element so plain reads don't trip initcheck.
            ctx.track_smem_write(0, tid_a, "prop::seed");
            ctx.sync();
            ctx.track_smem_access(0, tid_a, "prop::a", a_writes);
            if barrier_between {
                ctx.sync();
            }
            ctx.track_smem_access(0, tid_b, "prop::b", b_writes);
            io.scattered[0].set_at(0, 0.0, 0, "prop::store");
        });
        let races = report
            .hazards
            .iter()
            .filter(|h| matches!(h.kind, HazardKind::RaceWriteWrite | HazardKind::RaceReadWrite))
            .count();
        let expect = tid_a != tid_b && (a_writes || b_writes) && !barrier_between;
        prop_assert!(races == usize::from(expect), "{report}");
    }
}

/// Convenience used by the property test above: read-or-write in one call.
trait TrackAccess {
    fn track_smem_access(&mut self, idx: usize, tid: usize, site: &'static str, write: bool);
}

impl TrackAccess for trisolve_gpu_sim::BlockCtx<'_> {
    fn track_smem_access(&mut self, idx: usize, tid: usize, site: &'static str, write: bool) {
        if write {
            self.track_smem_write(idx, tid, site);
        } else {
            self.track_smem_read(idx, tid, site);
        }
    }
}
