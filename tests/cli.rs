//! End-to-end tests of the `trisolve` CLI binary (Cargo builds it and
//! exposes its path via `CARGO_BIN_EXE_trisolve`).

use std::process::Command;
use trisolve::autotune::DbOrigin;
use trisolve::prelude::*;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trisolve"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn devices_lists_all_three_gpus() {
    let (ok, stdout, _) = run(&["devices"]);
    assert!(ok);
    for name in ["8800 GTX", "GTX 280", "GTX 470"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn devices_json_is_valid_json() {
    let (ok, stdout, _) = run(&["devices", "--json"]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v.as_array().unwrap().len(), 3);
    for row in v.as_array().unwrap() {
        let kernel = row["host_row_kernel"].as_str().unwrap();
        assert!(["avx512f", "baseline"].contains(&kernel), "{kernel}");
    }
}

#[test]
fn solve_reports_plan_and_residual() {
    let (ok, stdout, _) = run(&[
        "solve",
        "--systems",
        "8",
        "--size",
        "2048",
        "--tuner",
        "static",
        "--device",
        "280",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("GeForce GTX 280"));
    assert!(stdout.contains("plan"));
    assert!(stdout.contains("residual"));
}

#[test]
fn solve_json_contains_metrics() {
    let (ok, stdout, _) = run(&[
        "solve",
        "--systems",
        "4",
        "--size",
        "1024",
        "--tuner",
        "default",
        "--json",
    ]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert!(v["sim_time_ms"].as_f64().unwrap() > 0.0);
    assert!(v["worst_relative_residual"].as_f64().unwrap() < 1e-3);
    assert_eq!(v["tuner"], "default");
}

#[test]
fn solve_rejects_unknown_precisions() {
    for precision in ["f16", "F64"] {
        let (ok, stdout, stderr) = run(&[
            "solve",
            "--systems",
            "4",
            "--size",
            "256",
            "--tuner",
            "default",
            "--precision",
            precision,
        ]);
        assert!(!ok, "--precision {precision} must fail, got:\n{stdout}");
        assert!(stderr.contains("unknown precision"), "{stderr}");
    }
}

#[test]
fn solve_rejects_a_bad_seed_in_both_precisions() {
    for precision in ["f32", "f64"] {
        let (ok, stdout, stderr) = run(&[
            "solve",
            "--systems",
            "4",
            "--size",
            "256",
            "--tuner",
            "default",
            "--seed",
            "abc",
            "--precision",
            precision,
        ]);
        assert!(!ok, "{precision}: bad seed must fail, got:\n{stdout}");
        assert!(stderr.contains("--seed must be a number"), "{stderr}");

        let (ok, stdout, stderr) = run(&[
            "solve",
            "--systems",
            "4",
            "--size",
            "256",
            "--tuner",
            "bogus",
            "--precision",
            precision,
        ]);
        assert!(!ok, "{precision}: bad tuner must fail, got:\n{stdout}");
        assert!(stderr.contains("unknown tuner `bogus`"), "{stderr}");
    }
}

/// The f64 path runs through the same code as f32: `--json`, `--tuner`
/// and `--workload` all reach it.
#[test]
fn f64_solve_honours_json_tuner_and_workload() {
    let residual = |workload: &str| {
        let (ok, stdout, stderr) = run(&[
            "solve",
            "--systems",
            "4",
            "--size",
            "1024",
            "--precision",
            "f64",
            "--tuner",
            "static",
            "--workload",
            workload,
            "--json",
        ]);
        assert!(ok, "{stderr}");
        let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
        assert_eq!(v["tuner"], "static");
        let residual = v["worst_relative_residual"].as_f64().unwrap();
        assert!(residual < 1e-10, "{workload}: {residual}");
        residual
    };
    assert_ne!(residual("random"), residual("poisson"));
}

#[test]
fn malformed_input_fails_with_a_typed_error() {
    let cases: [(&[&str], &str); 5] = [
        (
            &["solve", "--systems", "2", "--size", "64", "--bogus", "3"],
            "`solve` does not accept `--bogus`",
        ),
        (
            &["tune", "--systems", "0", "--size", "8"],
            "--systems must be a positive integer",
        ),
        (
            &["serve-sim", "--quick", "--scale", "nan"],
            "--scale must be",
        ),
        (&["serve-sim", "--quick", "--scale", "0"], "--scale must be"),
        (
            &["serve-sim", "--quick", "--scale", "-1"],
            "--scale must be",
        ),
    ];
    for (args, message) in cases {
        let (ok, stdout, stderr) = run(args);
        assert!(!ok, "{args:?} must fail, got:\n{stdout}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// Transforms that fit on chip have no split to tune; even one point runs.
#[test]
fn fft_runs_on_chip_lengths() {
    for len in ["1", "2", "4"] {
        let (ok, stdout, stderr) = run(&["fft", "--len", len]);
        assert!(ok, "--len {len}: {stderr}");
        assert!(stdout.contains(&format!("FFT of {len} points")), "{stdout}");
    }
}

/// One exit rule: the exit status agrees with the JSON verdict.
#[test]
fn stability_exit_status_agrees_with_its_verdict() {
    let out = Command::new(env!("CARGO_BIN_EXE_trisolve"))
        .args(["analyze", "--stability", "--quick", "--json"])
        .output()
        .expect("binary runs");
    let v: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(v["sound"].as_bool(), Some(out.status.success()));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn missing_required_flag_fails_cleanly() {
    let (ok, _, stderr) = run(&["solve", "--size", "1024"]);
    assert!(!ok);
    assert!(stderr.contains("--systems"));
}

#[test]
fn bad_device_fails_cleanly() {
    let (ok, _, stderr) = run(&[
        "solve",
        "--systems",
        "2",
        "--size",
        "64",
        "--device",
        "9900",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown device"));
}

#[test]
fn tune_writes_a_cache_file() {
    let dir = std::env::temp_dir().join("trisolve-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("tuning.json");
    let _ = std::fs::remove_file(&cache);
    let (ok, stdout, _) = run(&[
        "tune",
        "--systems",
        "8",
        "--size",
        "4096",
        "--device",
        "470",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    let text = std::fs::read_to_string(&cache).expect("cache written");
    assert!(text.contains("GeForce GTX 470"));
    std::fs::remove_file(&cache).unwrap();
}

/// Run `trisolve tune --cache path` over a damaged `path` holding `bytes`:
/// it exits 0, prints why the file was quarantined, moves it to
/// `path.quarantined`, and rewrites `path` as a clean one-entry database.
fn assert_tune_quarantines(path: &std::path::Path, bytes: &[u8], reason: &str) {
    let quarantined = path.with_extension("json.quarantined");
    std::fs::write(path, bytes).unwrap();
    let cache = path.to_str().unwrap();
    let (ok, _, stderr) = run(&["tune", "--systems", "8", "--size", "4096", "--cache", cache]);
    assert!(ok && stderr.contains("quarantined"), "{stderr}");
    assert!(stderr.contains(reason), "{reason:?} not in: {stderr}");
    assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
    let db = PlanDb::open(path);
    assert!(matches!(db.origin(), DbOrigin::Loaded), "{:?}", db.origin());
    assert_eq!(db.len(), 1);
    std::fs::remove_file(&quarantined).unwrap();
}

/// A file of 100 000 nested arrays is a parse error, not a stack overflow
/// that aborts the process: `report --regress` exits 1 with it, and
/// `tune --cache` quarantines it and rewrites the file.
#[test]
fn deeply_nested_json_files_fail_with_a_parse_error() {
    let dir = std::env::temp_dir().join("trisolve-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join(format!("deep-{}.json", std::process::id()));
    let text = "[".repeat(100_000) + &"]".repeat(100_000);
    std::fs::write(&deep, &text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trisolve"))
        .args(["report", "--regress", deep.to_str().unwrap(), "--quick"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
    assert_tune_quarantines(&deep, text.as_bytes(), "recursion limit exceeded");
    std::fs::remove_file(&deep).unwrap();
}

/// `tune --cache` writes the store `solve_auto` reads: a configuration the
/// CLI tuned for 8×4096 on the GTX 470 serves `solve_auto` on an 8×4096
/// f32 batch with zero tuner evaluations. A truncated or checksum-flipped
/// file is quarantined and rewritten, never fatal.
#[test]
fn tune_cache_serves_solve_auto_and_quarantines_damage() {
    let dir = std::env::temp_dir().join("trisolve-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("shared-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cache = path.to_str().unwrap();
    let (ok, _, stderr) = run(&[
        "tune",
        "--device",
        "470",
        "--systems",
        "8",
        "--size",
        "4096",
        "--cache",
        cache,
    ]);
    assert!(ok, "{stderr}");
    let valid = std::fs::read(&path).unwrap();

    let batch = random_dominant::<f32>(WorkloadShape::new(8, 4096), 5).unwrap();
    let evals = |db: &mut PlanDb| {
        let tracer = Tracer::enabled();
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        gpu.set_tracer(tracer.clone());
        let out = solve_auto(&mut gpu, &batch, db).unwrap();
        assert!(batch_worst_relative_residual(&batch, &out.x).unwrap() < 1e-4);
        let counters = tracer.counters();
        counters
            .iter()
            .find(|(k, _)| *k == "tuner_evals")
            .map_or(0, |c| c.1)
    };
    // Control: an empty store pays the tuner.
    assert!(evals(&mut PlanDb::in_memory()) > 0);
    let mut db = PlanDb::open(&path);
    assert!(matches!(db.origin(), DbOrigin::Loaded), "{:?}", db.origin());
    // Ungated tunings have their own class: the service's stability-gated
    // key for the same device, width, size and layout stays free.
    let device = DeviceSpec::gtx_470();
    assert!(db.contains(&PlanDb::ungated_key(device.name(), 4, 4096)));
    assert!(!db.contains(&PlanDb::key(device.name(), 4, 4096, "dominant", "auto")));
    assert_eq!(db.len(), 1);
    assert_eq!(evals(&mut db), 0);
    assert_eq!((db.hits(), db.misses()), (1, 0));

    assert_tune_quarantines(&path, &valid[..valid.len() / 2], "parse error");
    let at = String::from_utf8_lossy(&valid)
        .find("\"checksum\":\"")
        .unwrap()
        + 12;
    let mut flipped = valid;
    flipped[at] = if flipped[at] == b'0' { b'1' } else { b'0' };
    assert_tune_quarantines(&path, &flipped, "checksum mismatch");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn dnc_subcommands_run() {
    let (ok, stdout, _) = run(&["sort", "--len", "16384", "--device", "8800"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sorted 16384 keys"));

    let (ok, stdout, _) = run(&["fft", "--len", "4096"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("FFT of 4096 points"));

    let (ok, stdout, _) = run(&["quicksort", "--len", "30000"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("quicksorted 30000 keys"));
}
