//! `twoclock --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric it measured as
//! `metric <name> <value> <unit>` lines, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and the result metrics:
//! the end-to-end set for `--trace 0`, the per-layer set for `--trace 1`.
//! A traced run also writes its host spans to
//! `out/<workload>-seed<n>.trace.json` in this package's directory.
//! Exits nonzero when any correctness check failed.

use std::process::ExitCode;

use twoclock::{per_layer, run, Options, Workload, END_TO_END};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("twoclock: {msg}");
    eprintln!(
        "usage: twoclock --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Options::new(2011);
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        let ok = match args[i].as_str() {
            "--workload" => {
                workload = Workload::from_name(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|s| opts.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|s| opts.seconds = s)
                .is_ok_and(|()| opts.seconds.is_finite() && opts.seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    opts.trace = true;
                    true
                }
                _ => false,
            },
            other => return usage(&format!("unknown option {other}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {}", args[i]));
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let report = run(workload, &opts);
    for (name, m) in &report.metrics {
        println!("metric {name} {} {}", m.value, m.unit);
    }
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    if let Some(trace) = &report.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.trace.json", workload.name(), opts.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => eprintln!("twoclock: could not write {}: {e}", path.display()),
        }
    }
    let names: Vec<(String, &'static str)> = if opts.trace {
        per_layer()
    } else {
        END_TO_END.map(|(n, u)| (n.to_string(), u)).to_vec()
    };
    println!("{}", report.result_json(&names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
