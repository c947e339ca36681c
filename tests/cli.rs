//! End-to-end tests of the `trisolve` CLI binary (Cargo builds it and
//! exposes its path via `CARGO_BIN_EXE_trisolve`).

use std::process::Command;

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

/// A file of 100 000 nested arrays is a parse error (exit 1), not a
/// stack overflow that aborts the process.
#[test]
fn deeply_nested_json_files_fail_with_a_parse_error() {
    let dir = std::env::temp_dir().join("trisolve-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join(format!("deep-{}.json", std::process::id()));
    std::fs::write(&deep, "[".repeat(100_000) + &"]".repeat(100_000)).unwrap();
    let path = deep.to_str().unwrap();
    let cases: [&[&str]; 2] = [
        &["tune", "--systems", "8", "--size", "4096", "--cache", path],
        &["report", "--regress", path, "--quick"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_trisolve"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("recursion limit exceeded"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&deep).unwrap();
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
