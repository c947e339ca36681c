//! The three parameter-selection strategies (§IV): default, machine-query
//! (static) and self-tuned (dynamic).

use crate::microbench::Microbench;
use crate::search::{hill_climb_pow2_traced, SearchStats};
use crate::space::Pow2Axis;
use serde::{Deserialize, Serialize};
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::params::{prev_power_of_two, INTERLEAVED_MIN_SYSTEMS};
use trisolve_core::{BaseVariant, SolverParams};
use trisolve_gpu_sim::{Gpu, QueryableProps};
use trisolve_obs::arg;
use trisolve_tridiag::workloads::WorkloadShape;

/// A parameter-selection strategy: given a workload and the *queryable*
/// device properties, produce solver parameters.
///
/// Note the signature: tuners never see [`trisolve_gpu_sim::HiddenProps`].
/// The dynamic tuner gets its extra information by *measuring*, exactly as
/// on real hardware.
pub trait Tuner {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;
    /// Select parameters for a workload on a device.
    fn params_for(
        &self,
        shape: WorkloadShape,
        device: &QueryableProps,
        elem_bytes: usize,
    ) -> SolverParams;
}

// ---------------------------------------------------------------------------

/// §IV-B: machine-oblivious defaults. "The default parameters must at least
/// return correct answers for all architectures" — an on-chip size of 256
/// (what the weakest card fits), sixteen systems out of stage 1, a warp-size
/// Thomas switch.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultTuner;

impl Tuner for DefaultTuner {
    fn name(&self) -> &'static str {
        "default"
    }

    fn params_for(&self, shape: WorkloadShape, _: &QueryableProps, _: usize) -> SolverParams {
        // Machine-oblivious stage-skip rule: a batch so large that the
        // interleaved fast path's repacking amortises on *some* device
        // (tens of thousands of small systems) routes to the interleaved
        // batched Thomas. Correct everywhere — the default's only promise.
        if shape.num_systems >= DEFAULT_INTERLEAVED_MIN_BATCH
            && shape.system_size.next_power_of_two() <= DEFAULT_INTERLEAVED_MAX_SIZE
        {
            return SolverParams {
                variant: BaseVariant::Interleaved,
                ..SolverParams::default_untuned()
            };
        }
        SolverParams::default_untuned()
    }
}

/// Batch size from which [`DefaultTuner`] dares the interleaved fast path:
/// machine-oblivious, so conservative — only batches large enough that the
/// repacking passes amortise on every architecture class.
pub const DEFAULT_INTERLEAVED_MIN_BATCH: usize = 1 << 16;

/// Largest (padded) system size [`DefaultTuner`] routes to the interleaved
/// fast path: two warps of unknowns, beyond which the per-thread serial
/// Thomas phase dominates any coalescing win.
pub const DEFAULT_INTERLEAVED_MAX_SIZE: usize = 64;

// ---------------------------------------------------------------------------

/// §IV-C: machine-query tuning. Uses only what `deviceProperties` exposes:
///
/// * stage-2→3 switch: the largest subsystem that fits on-chip (shared
///   memory + register file + block-size cap) — "switches as soon as each
///   subsystem can fit into shared memory";
/// * stage-3→4 switch: with bank count and bank bandwidth unqueryable, "we
///   make a guess based on the warp size instead": 2 warps = 64 subsystems;
/// * stage-1→2 switch: estimated from the processor count (the memory
///   bandwidth it actually depends on cannot be queried).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticTuner;

impl StaticTuner {
    /// The machine-query stage-1 target: enough independent systems to give
    /// every processor one, rounded up to a power of two.
    pub fn stage1_guess(device: &QueryableProps) -> usize {
        device.num_processors.next_power_of_two()
    }

    /// The machine-query Thomas switch: two warps' worth of subsystems.
    pub fn thomas_guess(device: &QueryableProps) -> usize {
        2 * device.warp_size
    }

    /// The machine-query layout decision: route a batch to the interleaved
    /// batched-Thomas fast path when the static analyzer's coalescing +
    /// occupancy model places it in the many-small window (systems of at
    /// most two warps, a Fermi-class block-capacity gap the staged
    /// pipeline's tiny blocks cannot fill, and a batch deep enough to
    /// amortise the repacking passes) — see
    /// [`trisolve_analyze::many_small_window`].
    ///
    /// Like every static guess this uses only queryable properties; the
    /// dynamic tuner replaces it with a measured switch point.
    pub fn interleaved_guess(shape: WorkloadShape, device: &QueryableProps) -> bool {
        trisolve_analyze::many_small_window(shape, device)
    }
}

impl Tuner for StaticTuner {
    fn name(&self) -> &'static str {
        "static"
    }

    fn params_for(
        &self,
        shape: WorkloadShape,
        device: &QueryableProps,
        elem_bytes: usize,
    ) -> SolverParams {
        let onchip = SolverParams::max_onchip_size(device, elem_bytes);
        SolverParams {
            stage1_target_systems: Self::stage1_guess(device),
            onchip_size: onchip,
            thomas_switch: Self::thomas_guess(device).min(onchip),
            variant: if Self::interleaved_guess(shape, device) {
                BaseVariant::Interleaved
            } else {
                BaseVariant::Strided
            },
        }
    }
}

// ---------------------------------------------------------------------------

/// Current [`TunedConfig`] serialisation schema version.
///
/// * **v1** — the implicit pre-version schema: no `version` field; the
///   two `interleaved_*` fields may be absent (pre-layout-axis caches).
/// * **v2** — the explicit schema: a `version` field is written, and a
///   version *newer* than this constant is refused at parse time instead
///   of being silently misread — the plan database quarantines such
///   files rather than serving plans decoded from a future schema.
pub const TUNED_CONFIG_VERSION: usize = 2;

/// The result of a dynamic tuning run for one device (and element width) —
/// "save those results for future runs".
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TunedConfig {
    /// Serialisation schema version; see [`TUNED_CONFIG_VERSION`].
    /// Legacy documents without the field parse as v1 and migrate to the
    /// current schema (the migration is exactly the `interleaved_*`
    /// defaulting below).
    pub version: usize,
    /// Tuned stage-2→3 switch (on-chip subsystem size).
    pub onchip_size: usize,
    /// Tuned stage-3→4 switch (Thomas subsystem count).
    pub thomas_switch: usize,
    /// Smallest chain stride at which the strided base kernel beats the
    /// coalesced one (phase B of §IV-D). Below it the tuner selects
    /// [`BaseVariant::Coalesced`].
    pub strided_from_stride: usize,
    /// Largest (padded) system size for which the interleaved batched-Thomas
    /// fast path beat the staged pipeline on the many-small tuning workload
    /// (phase D). `0` disables the fast path — also the deserialisation
    /// default, so configurations cached before the layout axis existed
    /// parse to their exact pre-axis behaviour.
    pub interleaved_below_size: usize,
    /// Smallest batch (system count) at which the interleaved fast path
    /// still won during tuning; smaller batches take the staged pipeline
    /// even for qualifying system sizes.
    pub interleaved_from_systems: usize,
    /// Tuned stage-1→2 switch (independent systems before leaving stage 1).
    pub stage1_target_systems: usize,
    /// Element width this config was tuned for.
    pub elem_bytes: usize,
    /// Micro-benchmark evaluations the tuning run spent (the pruning
    /// strategies keep this small).
    pub evaluations: usize,
}

// Hand-written for explicit schema versioning (the vendored serde
// stand-in has no field attributes, so neither `#[serde(default)]` nor
// `#[serde(deny_unknown_fields)]` exists to lean on):
//
// * a missing `version` field means the implicit pre-version schema, v1;
// * v1 documents migrate: the two `interleaved_*` fields default to 0
//   (fast path disabled), reproducing exact pre-layout-axis behaviour;
// * a version newer than [`TUNED_CONFIG_VERSION`] is an error — a config
//   written by a future build must be refused loudly (the plan database
//   quarantines the file), never decoded field-by-best-effort.
impl Deserialize for TunedConfig {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let required = |k: &'static str| {
            usize::from_value(v.get(k).unwrap_or(&serde::Value::Null))
                .map_err(|e| serde::DeError::msg(format!("TunedConfig.{k}: {e}")))
        };
        // The switch points are nonzero powers of two: the only values the
        // tuner writes and `SolverParams::validate` accepts. Anything else
        // (a zero `onchip_size` divides by zero in `params_for`) is refused
        // here, so a damaged plan file is quarantined, not served.
        let switch_point = |k: &'static str| {
            let x = required(k)?;
            if x.is_power_of_two() {
                Ok(x)
            } else {
                Err(serde::DeError::msg(format!(
                    "TunedConfig.{k}: {x} is not a nonzero power of two"
                )))
            }
        };
        let defaulted = |k: &'static str| match v.get(k) {
            None | Some(serde::Value::Null) => Ok(0usize),
            Some(x) => usize::from_value(x)
                .map_err(|e| serde::DeError::msg(format!("TunedConfig.{k}: {e}"))),
        };
        let version = match v.get("version") {
            None | Some(serde::Value::Null) => 1usize,
            Some(x) => usize::from_value(x)
                .map_err(|e| serde::DeError::msg(format!("TunedConfig.version: {e}")))?,
        };
        if version > TUNED_CONFIG_VERSION {
            return Err(serde::DeError::msg(format!(
                "TunedConfig.version: schema v{version} is newer than this \
                 build's v{TUNED_CONFIG_VERSION}"
            )));
        }
        Ok(TunedConfig {
            version: TUNED_CONFIG_VERSION,
            onchip_size: switch_point("onchip_size")?,
            thomas_switch: switch_point("thomas_switch")?,
            strided_from_stride: required("strided_from_stride")?,
            interleaved_below_size: defaulted("interleaved_below_size")?,
            interleaved_from_systems: defaulted("interleaved_from_systems")?,
            stage1_target_systems: required("stage1_target_systems")?,
            elem_bytes: required("elem_bytes")?,
            evaluations: required("evaluations")?,
        })
    }
}

impl TunedConfig {
    /// Parameters for a workload under this tuned configuration.
    pub fn params_for(&self, shape: WorkloadShape) -> SolverParams {
        let n = shape.system_size.next_power_of_two();
        // Stage-skip decision: workloads inside the measured many-small
        // window route to the interleaved batched-Thomas fast path. Every
        // other shape falls through to the staged pipeline with switch
        // points untouched, so large-system plans are byte-for-byte what a
        // pre-layout-axis config produced.
        if self.interleaved_below_size > 0
            && n <= self.interleaved_below_size
            && shape.num_systems >= self.interleaved_from_systems.max(INTERLEAVED_MIN_SYSTEMS)
        {
            return SolverParams {
                stage1_target_systems: self.stage1_target_systems,
                onchip_size: self.onchip_size,
                thomas_switch: self.thomas_switch.min(self.onchip_size.min(n)),
                variant: BaseVariant::Interleaved,
            };
        }
        let chain_len = self.onchip_size.min(n);
        let stride = n / chain_len;
        SolverParams {
            stage1_target_systems: self.stage1_target_systems,
            onchip_size: self.onchip_size,
            thomas_switch: self.thomas_switch.min(chain_len),
            variant: if stride >= self.strided_from_stride {
                BaseVariant::Strided
            } else {
                BaseVariant::Coalesced
            },
        }
    }
}

/// Workload sizes the dynamic tuner benchmarks with. The defaults mirror
/// the paper ("a workload guaranteed to fill the machine" for the base
/// kernel, "one system that takes a large share of global memory" for the
/// stage-1 switch); `quick()` shrinks everything for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningBudget {
    /// Systems per processor in the machine-filling phase-A workload.
    pub fill_systems_per_sm: usize,
    /// System size of the phase-A workload (must exceed every candidate
    /// on-chip size so real splitting happens).
    pub fill_system_size: usize,
    /// System size of the phase-C single-system workload.
    pub huge_system_size: usize,
    /// Batch size (system count) of the phase-D many-small workload. The
    /// interleaved fast path only ever wins once its two repacking passes
    /// amortise over tens of thousands of systems, so the probe batch must
    /// be deep; set below [`INTERLEAVED_MIN_SYSTEMS`] to skip phase D.
    pub many_small_systems: usize,
    /// Largest system size the phase-D ladder probes for the layout switch
    /// point (clamped to [`INTERLEAVED_PROBE_CEILING`]).
    pub many_small_max_size: usize,
}

impl Default for TuningBudget {
    fn default() -> Self {
        Self {
            fill_systems_per_sm: 16,
            fill_system_size: 8192,
            huge_system_size: 1 << 21,   // 2M equations, the paper's 1x2M
            many_small_systems: 1 << 16, // 64K small systems
            many_small_max_size: INTERLEAVED_PROBE_CEILING,
        }
    }
}

impl TuningBudget {
    /// A small budget for fast tests. The many-small probe batch is far too
    /// shallow for the interleaved path to ever win, which keeps the phase
    /// cheap — quick configs simply leave the fast path disabled.
    pub fn quick() -> Self {
        Self {
            fill_systems_per_sm: 4,
            fill_system_size: 2048,
            huge_system_size: 1 << 16,
            many_small_systems: 2048,
            many_small_max_size: 64,
        }
    }
}

/// Largest (padded) system size any tuner will probe the interleaved
/// batched-Thomas fast path at. Beyond a few warps of unknowns per system
/// the per-thread serial Thomas phase dominates whatever the layout saves
/// on memory traffic, so larger sizes are never candidates — and the
/// phase-D ladder stays a handful of rungs.
pub const INTERLEAVED_PROBE_CEILING: usize = 128;

/// The dynamic tuner's `onchip_size` axis, derived by *proof* instead of
/// assumption: the theoretical axis spans up to
/// [`trisolve_analyze::ONCHIP_SEARCH_CEILING`], and the static analyzer's
/// launch-admissibility proofs cut off the infeasible tail before any
/// candidate is measured. The pruning is exact
/// (`prune_onchip_axis` proves `feasible_max ==
/// SolverParams::max_onchip_size`), so the axis — and every tuned output —
/// is identical to the pre-analyzer behaviour; the pruned candidate
/// classes are now *counted* (`candidates_pruned` / `proofs_failed`
/// tracer counters, surfaced in `MetricsReport`) instead of silently
/// never tried.
fn pruned_onchip_axis(
    q: &QueryableProps,
    elem_bytes: usize,
    tracer: &trisolve_obs::Tracer,
) -> Pow2Axis {
    let prune =
        trisolve_analyze::prune_onchip_axis(q, elem_bytes, trisolve_analyze::ONCHIP_SEARCH_CEILING);
    let theoretical = Pow2Axis::new(
        "onchip_size",
        32.min(prune.feasible_max),
        trisolve_analyze::ONCHIP_SEARCH_CEILING.max(prune.feasible_max),
    );
    let (axis, pruned) = theoretical.restrict_max(prune.feasible_max);
    if tracer.is_enabled() {
        tracer.counter_add("candidates_pruned", pruned.len() as u64);
        tracer.counter_add("proofs_failed", prune.proofs_failed as u64);
        tracer.instant_now(
            "tuner",
            "axis-pruned",
            vec![
                arg("axis", axis.name),
                arg("feasible_max", prune.feasible_max),
                arg("pruned_classes", pruned.len()),
                arg("proofs_failed", prune.proofs_failed),
            ],
        );
    }
    axis
}

/// §IV-D: the self-tuner. Seeds every axis at the static tuner's guess,
/// then hill-climbs the decoupled parameter groups with micro-benchmarks:
///
/// * **phase A** — on a machine-filling workload, search the on-chip size,
///   re-tuning the Thomas switch (and trying both base-kernel variants) for
///   each candidate;
/// * **phase B** — sweep the chain stride upward to find where the strided
///   base kernel starts beating the coalesced one;
/// * **phase C** — on a single huge system, search the stage-1 target.
///
/// The phases are independent by the paper's decoupling argument, so the
/// total cost is the *sum* of the phase costs.
#[derive(Debug, Clone, Default)]
pub struct DynamicTuner {
    config: Option<TunedConfig>,
}

impl DynamicTuner {
    /// An untuned instance (falls back to the static guess until
    /// [`DynamicTuner::tune`] runs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap a previously saved configuration (from the plan database).
    pub fn from_config(config: TunedConfig) -> Self {
        Self {
            config: Some(config),
        }
    }

    /// The tuned configuration, if tuning has run.
    pub fn config(&self) -> Option<&TunedConfig> {
        self.config.as_ref()
    }

    /// Tune for one specific workload shape — what the paper's dynamic
    /// tuner does "at runtime", caching the result for future runs of the
    /// same workload class on the same GPU.
    ///
    /// Phase A (on-chip size with nested Thomas-switch/variant search) runs
    /// directly on the target shape; the stage-1 target is searched only
    /// when the workload actually engages stage 1 (too few systems).
    pub fn tune_for<T: GpuScalar>(
        &mut self,
        gpu: &mut Gpu<T>,
        shape: WorkloadShape,
    ) -> TunedConfig {
        let mut mb: Microbench<T> = Microbench::new();
        self.tune_for_with(gpu, shape, &mut mb)
    }

    /// [`DynamicTuner::tune_for`] with a caller-supplied measurement
    /// harness — lets callers gate candidates by stability class, and
    /// share one harness (and its cached sessions) across tuning runs on
    /// the same device.
    pub fn tune_for_with<T: GpuScalar>(
        &mut self,
        gpu: &mut Gpu<T>,
        shape: WorkloadShape,
        mb: &mut Microbench<T>,
    ) -> TunedConfig {
        let q = gpu.spec().queryable().clone();
        let eb = elem_bytes::<T>();
        let tracer = gpu.tracer().clone();
        let evaluations_before = mb.measurements;

        let static_guess = StaticTuner.params_for(shape, &q, eb);
        let onchip_axis = pruned_onchip_axis(&q, eb, &tracer);

        let mut p1 = static_guess.stage1_target_systems;
        let mut best_t4 = std::collections::HashMap::new();
        let (onchip, _, _) =
            hill_climb_pow2_traced(onchip_axis, static_guess.onchip_size, &tracer, |s3| {
                let t4_axis = Pow2Axis::new("thomas_switch", 8.min(s3), s3);
                let (t4, cost, _) =
                    hill_climb_pow2_traced(t4_axis, StaticTuner::thomas_guess(&q), &tracer, |t4| {
                        [BaseVariant::Strided, BaseVariant::Coalesced]
                            .into_iter()
                            .map(|variant| {
                                mb.measure(
                                    &mut *gpu,
                                    shape,
                                    &SolverParams {
                                        stage1_target_systems: p1,
                                        onchip_size: s3,
                                        thomas_switch: t4,
                                        variant,
                                    },
                                )
                            })
                            .fold(f64::INFINITY, f64::min)
                    });
                best_t4.insert(s3, t4);
                cost
            });
        let thomas_switch = best_t4[&onchip];

        // Resolve the winning variant at the chosen switch points.
        let measure_variant = |mb: &mut Microbench<T>, gpu: &mut Gpu<T>, variant, p1| {
            mb.measure(
                gpu,
                shape,
                &SolverParams {
                    stage1_target_systems: p1,
                    onchip_size: onchip,
                    thomas_switch,
                    variant,
                },
            )
        };
        let t_str = measure_variant(mb, gpu, BaseVariant::Strided, p1);
        let t_coa = measure_variant(mb, gpu, BaseVariant::Coalesced, p1);
        let variant = if t_str <= t_coa {
            BaseVariant::Strided
        } else {
            BaseVariant::Coalesced
        };

        // Stage-1 target: only searched when the workload runs stage 1.
        if shape.num_systems < static_guess.stage1_target_systems {
            let p1_axis =
                Pow2Axis::new("stage1_target", 1, 4 * q.num_processors.next_power_of_two());
            let (best_p1, _, _) = hill_climb_pow2_traced(p1_axis, p1, &tracer, |cand| {
                mb.measure(
                    &mut *gpu,
                    shape,
                    &SolverParams {
                        stage1_target_systems: cand,
                        onchip_size: onchip,
                        thomas_switch,
                        variant,
                    },
                )
            });
            p1 = best_p1;
        }

        // Layout resolution: for a qualifying many-small shape, measure the
        // interleaved batched-Thomas fast path against the best staged
        // candidate at the tuned switch points and record the stage-skip
        // decision. Non-qualifying shapes never pay the extra evaluation,
        // keeping large-system tuning runs identical to the pre-layout-axis
        // search.
        let np = shape.system_size.next_power_of_two();
        let mut interleaved_below_size = 0usize;
        let mut interleaved_from_systems = 0usize;
        if shape.num_systems >= INTERLEAVED_MIN_SYSTEMS && np <= INTERLEAVED_PROBE_CEILING {
            let t_staged = t_str.min(t_coa);
            let t_inter = mb.measure(
                &mut *gpu,
                shape,
                &SolverParams {
                    stage1_target_systems: p1,
                    onchip_size: onchip,
                    thomas_switch,
                    variant: BaseVariant::Interleaved,
                },
            );
            let won = t_inter < t_staged;
            if won {
                interleaved_below_size = np;
                interleaved_from_systems = shape.num_systems;
            }
            if tracer.is_enabled() {
                tracer.instant_now(
                    "tuner",
                    "layout-select",
                    vec![
                        arg("systems", shape.num_systems),
                        arg("size", shape.system_size),
                        arg("staged_s", t_staged),
                        arg("interleaved_s", t_inter),
                        arg(
                            "layout",
                            if won {
                                BaseVariant::Interleaved.layout_name()
                            } else {
                                variant.layout_name()
                            },
                        ),
                    ],
                );
            }
        }

        let stride = shape.system_size.next_power_of_two()
            / onchip.min(shape.system_size.next_power_of_two());
        let config = TunedConfig {
            version: TUNED_CONFIG_VERSION,
            onchip_size: onchip,
            thomas_switch,
            // `variant` here is the staged winner (strided vs coalesced);
            // the interleaved decision is carried separately above.
            strided_from_stride: if variant == BaseVariant::Strided {
                stride.max(1)
            } else {
                2 * stride.max(1)
            },
            interleaved_below_size,
            interleaved_from_systems,
            stage1_target_systems: p1,
            elem_bytes: eb,
            evaluations: mb.measurements - evaluations_before,
        };
        self.trace_tuned(&tracer, &config);
        self.config = Some(config.clone());
        config
    }

    /// Phase D of the search: the many-small **layout switch**. Walk the
    /// system-size ladder (32, 64, …, `max_size`) on a `batch_systems`-deep
    /// batch, measuring the interleaved batched-Thomas fast path against
    /// the better staged variant at the tuned switch points. The recorded
    /// switch point is the largest *contiguous* winning prefix of the
    /// ladder (a gap ends the window — the fast path must not be enabled
    /// for sizes it loses at). If the fast path won anywhere, the batch
    /// floor is then found by halving the batch at the winning size until
    /// the staged pipeline takes over again.
    ///
    /// Returns `(interleaved_below_size, interleaved_from_systems)` —
    /// `(0, 0)` when the fast path never won (or the probe batch is too
    /// shallow to qualify).
    fn tune_layout_switch<T: GpuScalar>(
        &self,
        gpu: &mut Gpu<T>,
        mb: &mut Microbench<T>,
        tracer: &trisolve_obs::Tracer,
        batch_systems: usize,
        max_size: usize,
        staged: SolverParams,
    ) -> (usize, usize) {
        // Static pruning of the layout axis: a probe batch the plan
        // builder provably refuses the interleaved variant for skips the
        // whole phase without pricing a candidate.
        if !trisolve_analyze::prune_layout_axis(WorkloadShape::new(batch_systems, 32))
            .candidates
            .contains(&BaseVariant::Interleaved)
        {
            return (0, 0);
        }
        // One ladder rung: best staged variant vs interleaved on `shape`.
        let probe = |mb: &mut Microbench<T>, gpu: &mut Gpu<T>, shape: WorkloadShape| {
            let np = shape.system_size.next_power_of_two();
            let mk = |variant| SolverParams {
                thomas_switch: staged.thomas_switch.min(staged.onchip_size.min(np)),
                variant,
                ..staged
            };
            let t_staged = mb
                .measure(&mut *gpu, shape, &mk(BaseVariant::Strided))
                .min(mb.measure(&mut *gpu, shape, &mk(BaseVariant::Coalesced)));
            let t_inter = mb.measure(&mut *gpu, shape, &mk(BaseVariant::Interleaved));
            let won = t_inter < t_staged;
            if tracer.is_enabled() {
                tracer.instant_now(
                    "tuner",
                    "layout-probe",
                    vec![
                        arg("systems", shape.num_systems),
                        arg("size", shape.system_size),
                        arg("staged_s", t_staged),
                        arg("interleaved_s", t_inter),
                        arg(
                            "layout",
                            if won {
                                BaseVariant::Interleaved.layout_name()
                            } else {
                                "staged"
                            },
                        ),
                    ],
                );
            }
            won
        };

        let mut below = 0usize;
        let mut size = 32usize;
        while size <= max_size {
            if !probe(mb, gpu, WorkloadShape::new(batch_systems, size)) {
                break; // contiguous winning prefix only
            }
            below = size;
            size *= 2;
        }

        let mut from = 0usize;
        if below > 0 {
            from = batch_systems;
            while from / 2 >= INTERLEAVED_MIN_SYSTEMS
                && probe(mb, gpu, WorkloadShape::new(from / 2, below))
            {
                from /= 2;
            }
        }

        if tracer.is_enabled() {
            tracer.instant_now(
                "tuner",
                "layout-select",
                vec![
                    arg("interleaved_below_size", below),
                    arg("interleaved_from_systems", from),
                    arg(
                        "layout",
                        if below > 0 {
                            BaseVariant::Interleaved.layout_name()
                        } else {
                            "staged"
                        },
                    ),
                ],
            );
        }
        (below, from)
    }

    /// Emit the final `"tuner"/"tuned"` event summarising a tuning run.
    fn trace_tuned(&self, tracer: &trisolve_obs::Tracer, config: &TunedConfig) {
        if !tracer.is_enabled() {
            return;
        }
        tracer.instant_now(
            "tuner",
            "tuned",
            vec![
                arg("onchip_size", config.onchip_size),
                arg("thomas_switch", config.thomas_switch),
                arg("strided_from_stride", config.strided_from_stride),
                arg("interleaved_below_size", config.interleaved_below_size),
                arg("interleaved_from_systems", config.interleaved_from_systems),
                arg("stage1_target", config.stage1_target_systems),
                arg("evaluations", config.evaluations),
            ],
        );
    }

    /// Run the §IV-D tuning procedure on a device. Takes well under a
    /// simulated minute — the paper reports "less than one minute" for a
    /// real tuning run; the evaluation count is recorded in the result.
    pub fn tune<T: GpuScalar>(&mut self, gpu: &mut Gpu<T>, budget: TuningBudget) -> TunedConfig {
        let q = gpu.spec().queryable().clone();
        let eb = elem_bytes::<T>();
        let tracer = gpu.tracer().clone();
        let mut mb: Microbench<T> = Microbench::new();

        let onchip_axis = pruned_onchip_axis(&q, eb, &tracer);
        let static_guess =
            StaticTuner.params_for(WorkloadShape::new(1, budget.fill_system_size), &q, eb);

        // ---- Phase A: on-chip size with nested Thomas switch ------------
        let fill_shape = WorkloadShape::new(
            budget.fill_systems_per_sm * q.num_processors,
            budget.fill_system_size,
        );
        let mut best_t4_for_onchip = std::collections::HashMap::new();
        let mut phase_a_stats = SearchStats::default();
        let (onchip, _, stats) =
            hill_climb_pow2_traced(onchip_axis, static_guess.onchip_size, &tracer, |s3| {
                // For each candidate on-chip size, tune the Thomas switch
                // from the static guess and take the better variant.
                let t4_axis = Pow2Axis::new("thomas_switch", 8.min(s3), s3);
                let (t4, cost, t4_stats) =
                    hill_climb_pow2_traced(t4_axis, StaticTuner::thomas_guess(&q), &tracer, |t4| {
                        [BaseVariant::Strided, BaseVariant::Coalesced]
                            .into_iter()
                            .map(|variant| {
                                mb.measure(
                                    &mut *gpu,
                                    fill_shape,
                                    &SolverParams {
                                        stage1_target_systems: static_guess.stage1_target_systems,
                                        onchip_size: s3,
                                        thomas_switch: t4,
                                        variant,
                                    },
                                )
                            })
                            .fold(f64::INFINITY, f64::min)
                    });
                phase_a_stats.evaluations += t4_stats.evaluations;
                best_t4_for_onchip.insert(s3, t4);
                cost
            });
        let thomas_switch = best_t4_for_onchip[&onchip];
        let _ = stats;

        // ---- Phase B: variant crossover stride ---------------------------
        // Benchmark the base kernel at growing stride (larger parent
        // systems, same on-chip size) under both variants; record the first
        // stride where strided wins and stays winning.
        let mut strided_from = usize::MAX;
        let mut phase_b_evals = 0usize;
        let mut stride = 2usize;
        while onchip * stride <= budget.fill_system_size.max(4 * onchip) && stride <= 64 {
            let shape = WorkloadShape::new(
                (budget.fill_systems_per_sm * q.num_processors / stride).max(1),
                onchip * stride,
            );
            let mk = |variant| SolverParams {
                stage1_target_systems: static_guess.stage1_target_systems,
                onchip_size: onchip,
                thomas_switch,
                variant,
            };
            let t_str = mb.measure(&mut *gpu, shape, &mk(BaseVariant::Strided));
            let t_coa = mb.measure(&mut *gpu, shape, &mk(BaseVariant::Coalesced));
            phase_b_evals += 2;
            if t_str < t_coa {
                strided_from = strided_from.min(stride);
            } else {
                strided_from = usize::MAX; // must win from here on
            }
            stride *= 2;
        }
        if strided_from == usize::MAX {
            strided_from = stride; // never won in range: only use beyond it
        }

        // ---- Phase C: stage-1 target on one huge system ------------------
        let huge = WorkloadShape::new(1, budget.huge_system_size);
        let p1_axis = Pow2Axis::new("stage1_target", 1, 4 * q.num_processors.next_power_of_two());
        let (stage1_target, _, p1_stats) =
            hill_climb_pow2_traced(p1_axis, StaticTuner::stage1_guess(&q), &tracer, |p1| {
                mb.measure(
                    &mut *gpu,
                    huge,
                    &SolverParams {
                        stage1_target_systems: p1,
                        onchip_size: onchip,
                        thomas_switch,
                        variant: if budget.huge_system_size / onchip >= strided_from {
                            BaseVariant::Strided
                        } else {
                            BaseVariant::Coalesced
                        },
                    },
                )
            });

        // ---- Phase D: many-small layout switch ---------------------------
        let staged = SolverParams {
            stage1_target_systems: stage1_target,
            onchip_size: onchip,
            thomas_switch,
            variant: BaseVariant::Strided,
        };
        let (interleaved_below_size, interleaved_from_systems) = self.tune_layout_switch(
            gpu,
            &mut mb,
            &tracer,
            budget.many_small_systems,
            budget.many_small_max_size.min(INTERLEAVED_PROBE_CEILING),
            staged,
        );

        let config = TunedConfig {
            version: TUNED_CONFIG_VERSION,
            onchip_size: onchip,
            thomas_switch,
            strided_from_stride: strided_from,
            interleaved_below_size,
            interleaved_from_systems,
            stage1_target_systems: stage1_target,
            elem_bytes: eb,
            evaluations: mb.measurements,
        };
        let _ = (phase_a_stats, phase_b_evals, p1_stats);
        self.trace_tuned(&tracer, &config);
        self.config = Some(config.clone());
        config
    }
}

impl Tuner for DynamicTuner {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn params_for(
        &self,
        shape: WorkloadShape,
        device: &QueryableProps,
        elem_bytes: usize,
    ) -> SolverParams {
        match &self.config {
            Some(cfg) => cfg.params_for(shape),
            None => StaticTuner.params_for(shape, device, elem_bytes),
        }
    }
}

/// Ensure a parameter set is admissible for a device, degrading gracefully
/// (used by drivers when a tuned config is applied to a different device
/// than it was tuned on).
pub fn clamp_to_device(
    mut params: SolverParams,
    device: &QueryableProps,
    elem_bytes: usize,
) -> SolverParams {
    let max = SolverParams::max_onchip_size(device, elem_bytes);
    params.onchip_size = prev_power_of_two(params.onchip_size.min(max));
    params.thomas_switch = params.thomas_switch.min(params.onchip_size);
    params
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trisolve_gpu_sim::DeviceSpec;

    #[test]
    fn tuned_config_schema_version_migrates_and_gates() {
        // v1 migration: a pre-version document (no `version`, no
        // `interleaved_*` fields — exactly what a pre-layout-axis build
        // wrote) must parse, land on the current schema version, and keep
        // the fast path disabled.
        let legacy = r#"{
            "onchip_size": 512,
            "thomas_switch": 64,
            "strided_from_stride": 8,
            "stage1_target_systems": 16,
            "elem_bytes": 4,
            "evaluations": 14
        }"#;
        let migrated: TunedConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(migrated.version, TUNED_CONFIG_VERSION);
        assert_eq!(migrated.interleaved_below_size, 0);
        assert_eq!(migrated.interleaved_from_systems, 0);
        assert_eq!(migrated.onchip_size, 512);
        // Even a deep many-small batch stays on the staged pipeline.
        let p = migrated.params_for(WorkloadShape::new(1 << 16, 32));
        assert_ne!(p.variant, BaseVariant::Interleaved);

        // Round trip: the current schema writes its version explicitly
        // and reparses to an identical config.
        let json = serde_json::to_string(&migrated).unwrap();
        assert!(json.contains("\"version\""), "{json}");
        let back: TunedConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, migrated);

        // Forward gate: a document claiming a *future* schema version is
        // refused — never best-effort decoded.
        let future = json.replace(
            &format!("\"version\":{TUNED_CONFIG_VERSION}"),
            "\"version\":99",
        );
        assert_ne!(future, json, "replacement must have rewritten the version");
        let err = serde_json::from_str::<TunedConfig>(&future).unwrap_err();
        assert!(err.to_string().contains("newer"), "{err}");
    }

    #[test]
    fn default_tuner_is_machine_oblivious() {
        let t = DefaultTuner;
        let shape = WorkloadShape::new(100, 1000);
        let p1 = t.params_for(shape, DeviceSpec::gtx_470().queryable(), 4);
        let p2 = t.params_for(shape, DeviceSpec::geforce_8800_gtx().queryable(), 4);
        assert_eq!(p1, p2);
        assert_eq!(p1.onchip_size, 256);
        assert_eq!(p1.stage1_target_systems, 16);
    }

    #[test]
    fn static_tuner_uses_device_capacity() {
        let t = StaticTuner;
        let shape = WorkloadShape::new(100, 4096);
        assert_eq!(
            t.params_for(shape, DeviceSpec::geforce_8800_gtx().queryable(), 4)
                .onchip_size,
            256
        );
        assert_eq!(
            t.params_for(shape, DeviceSpec::gtx_280().queryable(), 4)
                .onchip_size,
            512
        );
        assert_eq!(
            t.params_for(shape, DeviceSpec::gtx_470().queryable(), 4)
                .onchip_size,
            1024
        );
        // T4 guess: two warps.
        assert_eq!(
            t.params_for(shape, DeviceSpec::gtx_470().queryable(), 4)
                .thomas_switch,
            64
        );
    }

    #[test]
    fn static_params_always_valid() {
        for d in DeviceSpec::paper_devices() {
            for eb in [4usize, 8] {
                let p = StaticTuner.params_for(WorkloadShape::new(10, 10_000), d.queryable(), eb);
                p.validate(d.queryable(), eb).unwrap();
            }
        }
    }

    #[test]
    fn untuned_dynamic_falls_back_to_static() {
        let d = DeviceSpec::gtx_280();
        let shape = WorkloadShape::new(10, 4096);
        let dt = DynamicTuner::new();
        assert_eq!(
            dt.params_for(shape, d.queryable(), 4),
            StaticTuner.params_for(shape, d.queryable(), 4)
        );
    }

    #[test]
    fn tuning_produces_valid_cacheable_config() {
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        let mut dt = DynamicTuner::new();
        let cfg = dt.tune(&mut gpu, TuningBudget::quick());
        assert!(cfg.onchip_size.is_power_of_two());
        assert!(cfg.thomas_switch.is_power_of_two());
        assert!(cfg.evaluations > 0);
        // The resulting params validate on the device for various shapes.
        for shape in [
            WorkloadShape::new(1, 1 << 20),
            WorkloadShape::new(1000, 64),
            WorkloadShape::new(64, 4096),
        ] {
            let p = dt.params_for(shape, gpu.spec().queryable(), 4);
            p.validate(gpu.spec().queryable(), 4).unwrap();
        }
    }

    #[test]
    fn tuned_config_switches_variant_by_stride() {
        let cfg = TunedConfig {
            version: TUNED_CONFIG_VERSION,
            onchip_size: 512,
            thomas_switch: 128,
            strided_from_stride: 8,
            interleaved_below_size: 0,
            interleaved_from_systems: 0,
            stage1_target_systems: 16,
            elem_bytes: 4,
            evaluations: 0,
        };
        // 4096/512 = stride 8: strided.
        assert_eq!(
            cfg.params_for(WorkloadShape::new(10, 4096)).variant,
            BaseVariant::Strided
        );
        // 1024/512 = stride 2: coalesced.
        assert_eq!(
            cfg.params_for(WorkloadShape::new(10, 1024)).variant,
            BaseVariant::Coalesced
        );
    }

    #[test]
    fn pruned_axis_is_identical_to_the_machine_query_axis() {
        // The bit-identity guarantee: proof-derived axis bounds coincide
        // with the machine-query bounds on every device and width, so the
        // search walks exactly the same candidates as before pruning.
        let tracer = trisolve_obs::Tracer::disabled();
        for d in DeviceSpec::paper_devices() {
            let q = d.queryable();
            for eb in [4usize, 8] {
                let max = SolverParams::max_onchip_size(q, eb);
                assert_eq!(
                    pruned_onchip_axis(q, eb, &tracer),
                    Pow2Axis::new("onchip_size", 32.min(max), max),
                    "{} eb={eb}",
                    q.name
                );
            }
        }
    }

    #[test]
    fn tuning_reports_pruned_candidate_classes() {
        // Every tuner run must report at least one statically-pruned
        // candidate class: the theoretical ceiling exceeds each device cap.
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        gpu.set_tracer(trisolve_obs::Tracer::enabled());
        let mut dt = DynamicTuner::new();
        dt.tune(&mut gpu, TuningBudget::quick());
        let counters = gpu.tracer().counters();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |(_, v)| *v)
        };
        assert!(get("candidates_pruned") >= 1, "{counters:?}");
        assert!(get("proofs_failed") >= 1, "{counters:?}");
    }

    #[test]
    fn tuned_config_gates_interleaved_by_shape() {
        let cfg = TunedConfig {
            version: TUNED_CONFIG_VERSION,
            onchip_size: 512,
            thomas_switch: 128,
            strided_from_stride: 8,
            interleaved_below_size: 64,
            interleaved_from_systems: 16384,
            stage1_target_systems: 16,
            elem_bytes: 4,
            evaluations: 0,
        };
        // Inside the measured window: interleaved fast path.
        assert_eq!(
            cfg.params_for(WorkloadShape::new(16384, 64)).variant,
            BaseVariant::Interleaved
        );
        assert_eq!(
            cfg.params_for(WorkloadShape::new(1 << 20, 32)).variant,
            BaseVariant::Interleaved
        );
        // Too large (65 pads to 128 > 64), too shallow, or huge systems:
        // the staged pipeline, with decisions identical to a config that
        // never had the layout axis.
        let mut legacy = cfg.clone();
        legacy.interleaved_below_size = 0;
        legacy.interleaved_from_systems = 0;
        for shape in [
            WorkloadShape::new(16384, 65),
            WorkloadShape::new(8192, 64),
            WorkloadShape::new(16384, 512),
            WorkloadShape::new(10, 4096),
            WorkloadShape::new(1, 1 << 20),
        ] {
            let p = cfg.params_for(shape);
            assert_ne!(p.variant, BaseVariant::Interleaved, "{shape:?}");
            assert_eq!(p, legacy.params_for(shape), "{shape:?}");
        }
    }

    #[test]
    fn default_tuner_gates_interleaved_on_batch_depth() {
        let t = DefaultTuner;
        let dev = DeviceSpec::gtx_280();
        let q = dev.queryable();
        let many_small = WorkloadShape::new(DEFAULT_INTERLEAVED_MIN_BATCH, 32);
        assert_eq!(
            t.params_for(many_small, q, 4).variant,
            BaseVariant::Interleaved
        );
        // Machine-oblivious: the same decision on every device.
        assert_eq!(
            t.params_for(many_small, q, 4),
            t.params_for(many_small, DeviceSpec::gtx_470().queryable(), 4)
        );
        // Shallow batches and large systems keep the paper defaults.
        for shape in [
            WorkloadShape::new(100, 32),
            WorkloadShape::new(DEFAULT_INTERLEAVED_MIN_BATCH, 1000),
        ] {
            assert_eq!(t.params_for(shape, q, 4), SolverParams::default_untuned());
        }
    }

    #[test]
    fn static_tuner_guesses_interleaved_only_for_fermi_many_small() {
        let t = StaticTuner;
        let shape = WorkloadShape::new(16384, 64);
        // 470: blocks of two warps against a 1024-thread block cap, batch
        // beyond 1K systems/SM — the machine-query gate fires.
        assert_eq!(
            t.params_for(shape, DeviceSpec::gtx_470().queryable(), 4)
                .variant,
            BaseVariant::Interleaved
        );
        // Same shape on the 512-thread-cap parts: staged.
        for d in [DeviceSpec::gtx_280(), DeviceSpec::geforce_8800_gtx()] {
            assert_eq!(
                t.params_for(shape, d.queryable(), 4).variant,
                BaseVariant::Strided
            );
        }
        // On the 470 but too shallow / too large: staged.
        for shape in [WorkloadShape::new(4096, 64), WorkloadShape::new(16384, 512)] {
            assert_eq!(
                t.params_for(shape, DeviceSpec::gtx_470().queryable(), 4)
                    .variant,
                BaseVariant::Strided
            );
        }
        // The gated guess still validates everywhere it fires.
        StaticTuner
            .params_for(shape, DeviceSpec::gtx_470().queryable(), 4)
            .validate(DeviceSpec::gtx_470().queryable(), 4)
            .unwrap();
    }

    #[test]
    fn dynamic_tuner_finds_the_interleaved_switch_on_fermi() {
        // The measured stage-skip decision: on the GTX 470 a deep batch of
        // small systems runs faster through the interleaved batched-Thomas
        // path, and phase D must find that switch point. The same budget on
        // the GTX 280 must leave the fast path disabled (it loses there).
        let budget = TuningBudget {
            many_small_systems: 16384,
            many_small_max_size: 32,
            ..TuningBudget::quick()
        };
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut dt = DynamicTuner::new();
        let cfg = dt.tune(&mut gpu, budget);
        assert_eq!(cfg.interleaved_below_size, 32, "{cfg:?}");
        assert!(cfg.interleaved_from_systems >= INTERLEAVED_MIN_SYSTEMS);
        assert!(cfg.interleaved_from_systems <= 16384);
        assert_eq!(
            cfg.params_for(WorkloadShape::new(16384, 32)).variant,
            BaseVariant::Interleaved
        );
        assert_ne!(
            cfg.params_for(WorkloadShape::new(16384, 2048)).variant,
            BaseVariant::Interleaved
        );

        let mut gpu280: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        let cfg280 = DynamicTuner::new().tune(&mut gpu280, budget);
        assert_eq!(cfg280.interleaved_below_size, 0, "{cfg280:?}");
        assert_ne!(
            cfg280.params_for(WorkloadShape::new(16384, 32)).variant,
            BaseVariant::Interleaved
        );
    }

    #[test]
    fn tune_for_resolves_layout_only_for_qualifying_shapes() {
        // A qualifying shape where the staged pipeline wins: the layout is
        // probed (one extra evaluation) but the fast path stays disabled.
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
        let mut dt = DynamicTuner::new();
        let cfg = dt.tune_for(&mut gpu, WorkloadShape::new(64, 32));
        assert_eq!(cfg.interleaved_below_size, 0);
        assert_eq!(cfg.interleaved_from_systems, 0);
        // A large-system shape is never probed, so the tuning run is the
        // same search the pre-layout-axis tuner performed.
        let cfg = dt.tune_for(&mut gpu, WorkloadShape::new(16, 2048));
        assert_eq!(cfg.interleaved_below_size, 0);
        assert_ne!(
            cfg.params_for(WorkloadShape::new(16, 2048)).variant,
            BaseVariant::Interleaved
        );
    }

    #[test]
    fn layout_probes_are_visible_in_the_trace() {
        // Satellite of the layout axis: every candidate evaluation carries
        // a `layout` arg and phase D emits `layout-probe`/`layout-select`
        // events, so a trace viewer can tell the three layouts apart.
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        gpu.set_tracer(trisolve_obs::Tracer::enabled());
        let mut dt = DynamicTuner::new();
        dt.tune(
            &mut gpu,
            TuningBudget {
                many_small_systems: 2048,
                many_small_max_size: 32,
                ..TuningBudget::quick()
            },
        );
        let events = gpu.tracer().events();
        let named = |n: &str| events.iter().filter(|e| e.name == n).count();
        assert!(named("layout-probe") >= 1);
        assert!(named("layout-select") >= 1);
        let layout_args: Vec<String> = events
            .iter()
            .filter(|e| e.name == "eval")
            .map(|e| format!("{:?}", e.args))
            .collect();
        assert!(!layout_args.is_empty());
        assert!(layout_args
            .iter()
            .all(|a| a.contains("\"layout\"") || a.contains("layout")));
        assert!(
            layout_args.iter().any(|a| a.contains("interleaved")),
            "phase D must evaluate the interleaved layout at least once"
        );
    }

    #[test]
    fn clamp_to_device_degrades_gracefully() {
        let p = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 1024,
            thomas_switch: 256,
            variant: BaseVariant::Strided,
        };
        let clamped = clamp_to_device(p, DeviceSpec::geforce_8800_gtx().queryable(), 4);
        assert_eq!(clamped.onchip_size, 256);
        assert_eq!(clamped.thomas_switch, 256);
        clamped
            .validate(DeviceSpec::geforce_8800_gtx().queryable(), 4)
            .unwrap();
    }

    /// A field value: zero, a power of two, a small integer or a large one.
    fn field() -> impl Strategy<Value = usize> {
        (0u64..4, any::<u64>()).prop_map(|(kind, r)| match kind {
            0 => 0,
            1 => 1 << (r % 40),
            2 => (r % 4096) as usize,
            _ => (r % (1 << 50)) as usize,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decoded_configs_serve_every_shape(
            onchip in field(),
            thomas in field(),
            (strided, below, from, stage1) in (field(), field(), field(), field()),
            (elem, evals) in (field(), field()),
        ) {
            let doc = serde_json::json!({
                "onchip_size": onchip,
                "thomas_switch": thomas,
                "strided_from_stride": strided,
                "interleaved_below_size": below,
                "interleaved_from_systems": from,
                "stage1_target_systems": stage1,
                "elem_bytes": elem,
                "evaluations": evals
            });
            let decoded = TunedConfig::from_value(&doc);
            let switch_points_valid = onchip.is_power_of_two() && thomas.is_power_of_two();
            prop_assert_eq!(decoded.is_ok(), switch_points_valid);
            if let Ok(cfg) = decoded {
                for m in [1, 3, 64, 1 << 16] {
                    for n in [1, 5, 64, 1000, 1 << 21] {
                        let p = cfg.params_for(WorkloadShape::new(m, n));
                        prop_assert_eq!(p.onchip_size, onchip);
                        prop_assert!(p.thomas_switch <= thomas);
                    }
                }
            }
        }
    }
}
