//! The skeleton the six self-checking commands share (`sanitize`,
//! `analyze`, `analyze --stability`, `analyze --schedule`, `chaos` and
//! `serve-sim`), and the typed option parser of the `trisolve` binary.
//!
//! Every self-checking run has one shape: planted fixtures the checker must
//! catch, then a sweep over the paper's matrix ([`HarnessOptions`]),
//! printed as text or as one JSON object ([`Report`], [`print_json`]), with
//! an exit status that fails on the first kind of failure found
//! ([`exit_rule`]). Each harness module keeps only its fixtures, its
//! per-case check and its own text lines; the grid shrink rules live next
//! to the grids ([`WorkloadShape::shrunk_paper`]).

use std::fmt;

use serde::Serialize;
use serde_json::Value;
use trisolve_core::kernels::GpuScalar;
use trisolve_core::SolveSession;
use trisolve_gpu_sim::DeviceSpec;
use trisolve_tridiag::workloads::WorkloadShape;

// ---------------------------------------------------------------------------
// The matrix a run covers
// ---------------------------------------------------------------------------

/// Which part of the paper's matrix a harness run covers.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Devices to sweep.
    pub devices: Vec<DeviceSpec>,
    /// Linear shrink of the workload grids
    /// ([`WorkloadShape::shrunk_paper`]); 1 = the full Figure 5–8 sizes.
    pub shrink: usize,
    /// Sweep f32 as well as f64.
    pub both_precisions: bool,
}

impl HarnessOptions {
    /// The full matrix: all devices, both precisions, moderately shrunk.
    pub fn full() -> Self {
        Self {
            devices: DeviceSpec::paper_devices(),
            shrink: 8,
            both_precisions: true,
        }
    }

    /// The CI smoke matrix: one device, f64 only, heavily shrunk.
    pub fn quick() -> Self {
        Self {
            devices: vec![DeviceSpec::gtx_470()],
            shrink: 16,
            both_precisions: false,
        }
    }

    /// The precisions the run covers as `(label, element bytes)`: f64, then
    /// f32 when [`Self::both_precisions`] is set.
    pub fn precisions(&self) -> &'static [(&'static str, usize)] {
        if self.both_precisions {
            &[("f64", 8), ("f32", 4)]
        } else {
            &[("f64", 8)]
        }
    }
}

/// The canonical many-small workload (64K systems of 32 unknowns) shrunk by
/// `shrink`. The batch keeps the interleaved plan's 32-system floor, so the
/// shrunk shape still builds the `interleave → ithomas → deinterleave`
/// pipeline.
pub fn many_small_shape(shrink: usize) -> WorkloadShape {
    WorkloadShape::new(64 * 1024, 32).shrunk_many_small(shrink)
}

// ---------------------------------------------------------------------------
// Fixture verdicts, reports, the JSON printer and the exit rule
// ---------------------------------------------------------------------------

/// One planted fixture's verdict.
#[derive(Debug, Clone)]
pub struct FixtureOutcome {
    /// Fixture name (what was planted or forced).
    pub name: &'static str,
    /// Did the checker catch what was planted (detect the hazard, refute
    /// the defect, recover from the fault) exactly as required?
    pub passed: bool,
    /// What happened: the diagnostic produced, or why the check failed.
    pub detail: String,
}

/// One self-checking run, ready to print: its JSON fields and text lines,
/// and the failures its exit rule reads.
#[derive(Debug, Default)]
pub struct Report {
    fields: Vec<(String, Value)>,
    verdict: &'static str,
    text: String,
    failures: Vec<(usize, String)>,
}

impl Report {
    /// An empty report whose JSON object ends in `verdict: true` exactly
    /// when no failure is recorded.
    pub(crate) fn new(verdict: &'static str) -> Self {
        Self {
            verdict,
            ..Self::default()
        }
    }

    /// Append the entries of the JSON object `object` to the report's
    /// fields (anything but an object adds nothing).
    pub(crate) fn fields(&mut self, object: Value) {
        if let Value::Object(entries) = object {
            self.fields.extend(entries);
        }
    }

    /// Append one text line.
    pub(crate) fn line(&mut self, line: impl fmt::Display) {
        self.text += &format!("{line}\n");
    }

    /// Record `count` failures of one kind, described by `message`. A
    /// count of zero records nothing that fails.
    pub(crate) fn fail(&mut self, count: usize, message: String) {
        self.failures.push((count, message));
    }

    /// The fixture block: a `fixtures` JSON field whose verdict is keyed
    /// `key`, a text block under `header` marking each fixture `key` or
    /// `miss` with its name padded to `width`, and the run's first failure:
    /// `failed(count)` for the fixtures that failed.
    pub(crate) fn fixtures(
        &mut self,
        header: &str,
        (key, miss, width): (&str, &str, usize),
        fixtures: &[FixtureOutcome],
        failed: impl FnOnce(usize) -> String,
    ) {
        let json: Vec<Value> = fixtures
            .iter()
            .map(|f| serde_json::json!({"name": f.name, key: f.passed, "detail": f.detail}))
            .collect();
        self.fields(serde_json::json!({ "fixtures": json }));
        self.line(header);
        for f in fixtures {
            let mark = if f.passed { key } else { miss };
            self.line(format_args!(
                "  [{mark:^8}] {:<width$} {}",
                f.name, f.detail
            ));
        }
        let count = fixtures.iter().filter(|f| !f.passed).count();
        self.fail(count, failed(count));
    }

    /// The indented detail lines under a case line.
    pub(crate) fn details<'a>(&mut self, details: impl IntoIterator<Item = &'a String>) {
        for d in details {
            self.line(format_args!("      {d}"));
        }
    }

    /// True when no recorded failure has a nonzero count.
    pub fn passed(&self) -> bool {
        exit_rule(&self.failures).is_ok()
    }

    /// The JSON object: every field in order, then the verdict.
    pub(crate) fn to_json(&self) -> Value {
        let mut fields = self.fields.clone();
        fields.push((self.verdict.to_string(), Value::Bool(self.passed())));
        Value::Object(fields)
    }

    /// Print the report (its JSON object, or its text lines), then apply
    /// the exit rule.
    pub fn finish(self, json: bool) -> Result<(), String> {
        if json {
            print_json(&self.to_json())?;
        } else {
            print!("{}", self.text);
        }
        exit_rule(&self.failures)
    }
}

/// The one exit rule: `Ok` when every failure count is zero, otherwise the
/// message of the first failure with a nonzero count.
pub fn exit_rule(failures: &[(usize, String)]) -> Result<(), String> {
    match failures.iter().find(|(count, _)| *count > 0) {
        Some((_, message)) => Err(message.clone()),
        None => Ok(()),
    }
}

/// The one JSON printer: `value` pretty-printed on stdout.
pub fn print_json(value: &impl Serialize) -> Result<(), String> {
    let text =
        serde_json::to_string_pretty(value).map_err(|e| format!("cannot render JSON: {e}"))?;
    println!("{text}");
    Ok(())
}

/// `item` as a JSON object with one more boolean field appended (a verdict
/// the item derives rather than stores).
pub(crate) fn with_verdict(item: &impl Serialize, key: &str, value: bool) -> Value {
    let mut v = serde_json::to_value(item);
    if let Value::Object(fields) = &mut v {
        fields.push((key.to_string(), Value::Bool(value)));
    }
    v
}

// ---------------------------------------------------------------------------
// Typed CLI options
// ---------------------------------------------------------------------------

/// Every subcommand of the `trisolve` binary and the flags it accepts.
const COMMANDS: &[(&str, &str)] = &[
    ("devices", "json"),
    (
        "solve",
        "systems size device tuner precision workload seed json",
    ),
    ("tune", "systems size device cache json"),
    ("compare", "systems size workload seed json"),
    (
        "trace",
        "systems size device tuner workload seed format out",
    ),
    ("sanitize", "quick device shrink json"),
    ("analyze", "quick device shrink stability schedule json"),
    ("chaos", "quick device shrink seed json"),
    ("serve-sim", "quick chaos requests scale seed json"),
    ("report", "quick device prom regress json"),
    ("sort", "len device"),
    ("fft", "len device"),
    ("quicksort", "len device"),
    ("help", ""),
    ("--help", ""),
    ("-h", ""),
];

/// The flags that take no value.
const SWITCHES: [&str; 6] = ["json", "quick", "stability", "schedule", "prom", "chaos"];

/// `--tuner`: how a solve picks its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerKind {
    /// The paper's untuned defaults.
    Default,
    /// Machine-query (static) tuning.
    Static,
    /// Micro-benchmark (dynamic) tuning.
    Dynamic,
}

impl TunerKind {
    /// The tuner's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            TunerKind::Default => "default",
            TunerKind::Static => "static",
            TunerKind::Dynamic => "dynamic",
        }
    }
}

/// `--precision`: the element type of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// `f32`.
    F32,
    /// `f64`.
    F64,
}

/// `--workload`: which generator builds the systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Random diagonally dominant systems.
    Random,
    /// 1-D Poisson systems.
    Poisson,
    /// ADI heat-equation lines.
    Adi,
    /// Cubic-spline fits.
    Spline,
}

/// `--format`: the trace export format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON.
    Chrome,
    /// One JSON event per line.
    Jsonl,
}

/// Why a command line was rejected. Flags are named without their `--`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand was given.
    NoCommand,
    /// The subcommand does not exist.
    UnknownCommand(String),
    /// The subcommand accepts no such flag (or the word is not a flag).
    UnknownFlag(&'static str, String),
    /// The flag takes a value but came last.
    MissingValue(&'static str),
    /// The subcommand needs this flag.
    Missing(&'static str),
    /// The value is none of the flag's choices (listed last).
    UnknownChoice(&'static str, String, &'static str),
    /// The value is not what the flag takes (described last).
    BadValue(&'static str, &'static str),
    /// A solve session for the shape needs more device memory than any
    /// device in use has: the bytes it needs (`None` when they overflow
    /// `usize`) and the most a device has.
    TooLarge {
        /// Bytes the session's buffers take.
        needed: Option<usize>,
        /// Global memory of the largest device in use.
        available: usize,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NoCommand => write!(f, "no command given"),
            CliError::UnknownCommand(c) => write!(f, "unknown command `{c}`"),
            CliError::UnknownFlag(cmd, arg) => write!(f, "`{cmd}` does not accept `{arg}`"),
            CliError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            CliError::Missing(flag) => write!(f, "missing --{flag}"),
            CliError::UnknownChoice(flag, v, choices) => {
                write!(f, "unknown {flag} `{v}` (use {choices})")
            }
            CliError::BadValue(flag, expected) => write!(f, "--{flag} must be {expected}"),
            CliError::TooLarge { needed, available } => {
                let needed = needed.map_or(format!("more than {}", usize::MAX), |b| b.to_string());
                write!(
                    f,
                    "--systems x --size needs {needed} bytes of device memory; \
                     {available} bytes are available"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<CliError> for String {
    fn from(e: CliError) -> Self {
        e.to_string()
    }
}

/// A parsed command line: the subcommand and every flag's typed value,
/// `false` or `None` when the flag is absent.
#[derive(Debug, Clone, Default)]
pub struct CliOptions {
    /// The subcommand.
    pub command: &'static str,
    /// `--json`: machine-readable output.
    pub json: bool,
    /// `--quick`: the CI smoke matrix.
    pub quick: bool,
    /// `--stability`: numerical-stability certification.
    pub stability: bool,
    /// `--schedule`: stream-schedule certification.
    pub schedule: bool,
    /// `--prom`: a Prometheus text scrape.
    pub prom: bool,
    /// `--chaos`: background faults and per-device storms.
    pub chaos: bool,
    /// `--systems M`.
    pub systems: Option<usize>,
    /// `--size N`.
    pub size: Option<usize>,
    /// `--len N`.
    pub len: Option<usize>,
    /// `--requests N`.
    pub requests: Option<usize>,
    /// `--shrink K`.
    pub shrink: Option<usize>,
    /// `--seed S`.
    pub seed: Option<u64>,
    /// `--scale X`.
    pub scale: Option<f64>,
    /// `--device 8800|280|470`.
    pub device: Option<DeviceSpec>,
    /// `--tuner`.
    pub tuner: Option<TunerKind>,
    /// `--precision`.
    pub precision: Option<Precision>,
    /// `--workload`.
    pub workload: Option<WorkloadKind>,
    /// `--format`.
    pub format: Option<TraceFormat>,
    /// `--cache FILE`.
    pub cache: Option<String>,
    /// `--out PATH`.
    pub out: Option<String>,
    /// `--regress BENCH.json`.
    pub regress: Option<String>,
}

/// Parse a command line (without the program name). An unknown subcommand,
/// a flag the subcommand does not accept and a malformed value are each a
/// typed error; nothing panics.
pub fn parse_args(args: &[String]) -> Result<CliOptions, CliError> {
    let (name, rest) = args.split_first().ok_or(CliError::NoCommand)?;
    let &(command, flags) = COMMANDS
        .iter()
        .find(|(c, _)| c == name)
        .ok_or_else(|| CliError::UnknownCommand(name.clone()))?;
    let mut opts = CliOptions {
        command,
        ..CliOptions::default()
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let flag = arg
            .strip_prefix("--")
            .and_then(|key| flags.split_whitespace().find(|f| *f == key))
            .ok_or_else(|| CliError::UnknownFlag(command, arg.clone()))?;
        let value = if SWITCHES.contains(&flag) {
            ""
        } else {
            it.next().ok_or(CliError::MissingValue(flag))?
        };
        opts.set(flag, value)?;
    }
    Ok(opts)
}

/// The value among `table`'s named choices.
fn choice<T: Copy>(
    flag: &'static str,
    v: &str,
    table: &[(&str, T)],
    choices: &'static str,
) -> Result<T, CliError> {
    let found = table.iter().find(|(name, _)| *name == v);
    found
        .map(|&(_, t)| t)
        .ok_or_else(|| CliError::UnknownChoice(flag, v.to_string(), choices))
}

impl CliOptions {
    /// Store `flag`'s value `v` (empty for a switch), typed.
    fn set(&mut self, flag: &'static str, v: &str) -> Result<(), CliError> {
        let bad = |expected| CliError::BadValue(flag, expected);
        let count = || {
            let n = v.parse().ok().filter(|&n: &usize| n > 0);
            n.ok_or(bad("a positive integer"))
        };
        match flag {
            "json" => self.json = true,
            "quick" => self.quick = true,
            "stability" => self.stability = true,
            "schedule" => self.schedule = true,
            "prom" => self.prom = true,
            "chaos" => self.chaos = true,
            "systems" => self.systems = Some(count()?),
            "size" => self.size = Some(count()?),
            "len" => self.len = Some(count()?),
            "requests" => self.requests = Some(count()?),
            "shrink" => self.shrink = Some(count()?),
            "seed" => self.seed = Some(v.parse().map_err(|_| bad("a number"))?),
            "scale" => {
                let x = v.parse().ok().filter(|x: &f64| x.is_finite() && *x > 0.0);
                self.scale = Some(x.ok_or(bad("a positive finite number"))?);
            }
            "device" => {
                let devices = [
                    ("8800", DeviceSpec::geforce_8800_gtx as fn() -> DeviceSpec),
                    ("8800gtx", DeviceSpec::geforce_8800_gtx),
                    ("280", DeviceSpec::gtx_280),
                    ("gtx280", DeviceSpec::gtx_280),
                    ("470", DeviceSpec::gtx_470),
                    ("gtx470", DeviceSpec::gtx_470),
                ];
                self.device = Some(choice(flag, v, &devices, "8800, 280 or 470")?());
            }
            "tuner" => {
                let tuners = [TunerKind::Default, TunerKind::Static, TunerKind::Dynamic];
                let table = tuners.map(|t| (t.name(), t));
                self.tuner = Some(choice(flag, v, &table, "default, static or dynamic")?);
            }
            "precision" => {
                let table = [("f32", Precision::F32), ("f64", Precision::F64)];
                self.precision = Some(choice(flag, v, &table, "f32 or f64")?);
            }
            "workload" => {
                let table = [
                    ("random", WorkloadKind::Random),
                    ("poisson", WorkloadKind::Poisson),
                    ("adi", WorkloadKind::Adi),
                    ("spline", WorkloadKind::Spline),
                ];
                self.workload = Some(choice(flag, v, &table, "random, poisson, adi or spline")?);
            }
            "format" => {
                let table = [
                    ("chrome", TraceFormat::Chrome),
                    ("jsonl", TraceFormat::Jsonl),
                ];
                self.format = Some(choice(flag, v, &table, "chrome or jsonl")?);
            }
            "cache" => self.cache = Some(v.into()),
            "out" => self.out = Some(v.into()),
            "regress" => self.regress = Some(v.into()),
            other => return Err(CliError::UnknownFlag(self.command, format!("--{other}"))),
        }
        Ok(())
    }

    /// The `--systems` × `--size` shape, refused before anything is
    /// generated when a solve session for it in `T` fits on none of
    /// `devices`.
    pub fn shape<T: GpuScalar>(&self, devices: &[DeviceSpec]) -> Result<WorkloadShape, CliError> {
        let m = self.systems.ok_or(CliError::Missing("systems"))?;
        let n = self.size.ok_or(CliError::Missing("size"))?;
        let shape = WorkloadShape::new(m, n);
        let available = devices
            .iter()
            .map(|d| d.queryable().global_mem_bytes)
            .max()
            .unwrap_or(0);
        match SolveSession::<T>::device_bytes(shape) {
            Some(needed) if needed <= available => Ok(shape),
            needed => Err(CliError::TooLarge { needed, available }),
        }
    }

    /// `--device`, the GTX 470 when absent.
    pub fn device(&self) -> DeviceSpec {
        self.device.clone().unwrap_or_else(DeviceSpec::gtx_470)
    }

    /// The harness matrix the flags select: the quick matrix with
    /// `--quick`, otherwise `full`; narrowed to `--device` and re-shrunk by
    /// `--shrink` when given.
    pub fn harness(&self, full: HarnessOptions) -> HarnessOptions {
        let mut opts = if self.quick {
            HarnessOptions::quick()
        } else {
            full
        };
        if let Some(dev) = &self.device {
            opts.devices = vec![dev.clone()];
        }
        opts.shrink = self.shrink.unwrap_or(opts.shrink);
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_rule_reports_the_first_nonempty_failure() {
        assert_eq!(exit_rule(&[]), Ok(()));
        assert_eq!(exit_rule(&[(0, "a".into()), (0, "b".into())]), Ok(()));
        let failures = [(0, "a".into()), (2, "b".into()), (1, "c".into())];
        assert_eq!(exit_rule(&failures), Err("b".into()));
        // The JSON verdict follows the same rule.
        let mut r = Report::new("clean");
        r.fail(0, "none".into());
        assert_eq!(r.to_json()["clean"].as_bool(), Some(true));
        r.fail(3, "three".into());
        assert_eq!(r.to_json()["clean"].as_bool(), Some(false));
    }
}
