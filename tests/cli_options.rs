//! Property tests of the `trisolve` option parser: on arbitrary argv it
//! returns a command or a typed error and never panics, and every
//! invocation the README, the CI gate (`scripts/check.sh`) and the CLI
//! tests spell out still parses.

use proptest::prelude::*;
use trisolve::harness::parse_args;

/// Words the parser gives meaning to, plus values at and past the edges of
/// every flag's range (the empty word comes from the arbitrary bytes).
const WORDS: &str = "devices solve tune compare trace sanitize analyze chaos serve-sim \
    report sort fft quicksort help --help -h --json --quick --stability --schedule --prom \
    --chaos --systems --size --len --requests --shrink --seed --scale --device --tuner \
    --precision --workload --format --cache --out --regress --bogus -- - 0 1 -1 64 nan inf \
    -0 1e309 0.5 18446744073709551616 abc 8800 470 f64 dynamic poisson jsonl é";

/// One argv word: a meaningful word, or arbitrary bytes.
fn word() -> impl Strategy<Value = String> {
    let words: Vec<&str> = WORDS.split_whitespace().collect();
    (0..words.len() + 8, prop::collection::vec(any::<u8>(), 0..6)).prop_map(move |(i, bytes)| {
        match words.get(i) {
            Some(w) => (*w).to_string(),
            None => String::from_utf8_lossy(&bytes).into_owned(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn parser_returns_a_command_or_a_typed_error(argv in prop::collection::vec(word(), 0..8)) {
        match parse_args(&argv) {
            Ok(opts) => {
                prop_assert!(opts.systems != Some(0) && opts.size != Some(0));
                prop_assert!(opts.scale.is_none_or(|x| x.is_finite() && x > 0.0));
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// The argv after the binary in `line`, for `cargo run ... trisolve -- <cmd>`
/// and `.../release/trisolve <cmd>` lines: shell variables stand in as `x`,
/// and the words stop at a comment, redirect or pipe.
fn invocation(line: &str) -> Option<Vec<String>> {
    let at = ["trisolve -- ", "release/trisolve "]
        .iter()
        .find_map(|p| line.find(p).map(|i| i + p.len()))?;
    let words: Vec<String> = line[at..]
        .split_whitespace()
        .take_while(|w| !w.starts_with(['#', '>', '|', ';', '&', ')']))
        .map(|w| w.trim_matches(['`', '"', '\'']))
        .map(|w| if w.starts_with('$') { "x" } else { w }.to_string())
        .collect();
    // `trisolve <cmd>` and `trisolve $args` are placeholders, not calls.
    let cmd = words.first()?;
    (!cmd.starts_with('<') && cmd != "x").then_some(words)
}

#[test]
fn documented_invocations_parse() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut checked = 0;
    for file in ["README.md", "scripts/check.sh"] {
        let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
        // Shell line continuations join into one invocation.
        for line in text.replace("\\\n", " ").lines() {
            if let Some(argv) = invocation(line) {
                assert!(parse_args(&argv).is_ok(), "{file}: {line}: {argv:?}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 30, "only {checked} invocations found");
}

/// Every all-literal `run(&[...])` of `tests/cli.rs` parses, except in the
/// tests that drive rejected input (named `*fail*` or `*reject*`).
#[test]
fn cli_test_invocations_parse() {
    let text =
        std::fs::read_to_string(format!("{}/tests/cli.rs", env!("CARGO_MANIFEST_DIR"))).unwrap();
    let mut checked = 0;
    for test in text.split("#[test]").skip(1) {
        let name = test
            .split("fn ")
            .nth(1)
            .and_then(|rest| rest.split('(').next())
            .unwrap_or_default();
        if name.contains("fail") || name.contains("reject") {
            continue;
        }
        for call in test.split("run(&[").skip(1) {
            let args = &call[..call.find("])").unwrap_or(0)];
            let argv: Option<Vec<String>> = args
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(|a| a.strip_prefix('"')?.strip_suffix('"').map(String::from))
                .collect();
            if let Some(argv) = argv {
                assert!(parse_args(&argv).is_ok(), "{name}: {argv:?}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 6, "only {checked} invocations found");
}
