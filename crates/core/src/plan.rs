//! The Figure 1 decision workflow: given a workload `(m, n)`, a device and a
//! parameter set, produce the executable sequence of stage invocations.

use crate::error::CoreError;
use crate::kernels::base::Base;
use crate::kernels::interleaved::{Deinterleave, IThomas, Interleave};
use crate::kernels::stage1::Stage1;
use crate::kernels::stage2::Stage2;
use crate::kernels::{
    BufferRoles, Family, GpuScalar, KernelAccessSummary, LaunchIo, RecurrenceKind,
};
use crate::params::{BaseVariant, SolverParams, INTERLEAVED_MIN_SYSTEMS};
use crate::Result;
use serde::Serialize;
use trisolve_gpu_sim::{
    validate_launches, BufferId, Gpu, KernelStats, LaunchConfig, QueryableProps, ValidationReport,
};
use trisolve_tridiag::workloads::WorkloadShape;

/// One stage invocation in a solve plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StageOp {
    /// One cooperative splitting launch: a single PCR step at the given
    /// parent stride, applied to every equation by the whole machine.
    /// `systems_now` independent subsystems exist *before* this step.
    Stage1Split {
        /// Parent stride of this PCR step (`2^step`).
        stride: usize,
        /// Independent subsystems before the step.
        systems_now: usize,
    },
    /// One independent-splitting launch: each block owns one chain and
    /// applies `steps` PCR steps with block-local synchronisation.
    Stage2Split {
        /// Number of independent chains (= blocks).
        chains: usize,
        /// Parent stride of each chain at entry.
        stride_in: usize,
        /// PCR steps to apply inside the launch.
        steps: u32,
    },
    /// The on-chip base kernel: one block per chain, PCR in shared memory to
    /// `thomas_chains` serial chains, then Thomas.
    BaseSolve {
        /// Number of chains (= blocks).
        chains: usize,
        /// Chain length (equations per block; the *stage-3 system size*).
        chain_len: usize,
        /// Parent stride of each chain.
        stride: usize,
        /// Serial chains per block handed to the Thomas phase (the
        /// stage-3→4 switch after clamping to the chain length).
        thomas_chains: usize,
        /// Memory-layout variant.
        variant: BaseVariant,
    },
    /// Transpose the batch from system-major into fully interleaved layout
    /// (element `j` of system `s` moves to `j·systems + s`) — the entry op
    /// of the stage-skip [`BaseVariant::Interleaved`] plan.
    InterleavePack {
        /// Number of systems (`batch`, the interleaved map's coefficient).
        systems: usize,
        /// Padded equations per system.
        size: usize,
    },
    /// The single-kernel batched-Thomas solve over the interleaved batch:
    /// one thread per system, no PCR stages at all.
    InterleavedThomas {
        /// Number of systems (= threads).
        systems: usize,
        /// Padded equations per system.
        size: usize,
    },
    /// Transpose the interleaved solution back to system-major layout —
    /// the exit op of the stage-skip plan.
    Deinterleave {
        /// Number of systems.
        systems: usize,
        /// Padded equations per system.
        size: usize,
    },
}

impl StageOp {
    /// This op's descriptor over `m` systems of padded size `padded_size`.
    #[must_use]
    pub fn describe(&self, m: usize, padded_size: usize) -> OpDescriptor {
        let (stage, roles) = self.family(m, padded_size, Kind);
        OpDescriptor {
            op: *self,
            m,
            padded_size,
            stage,
            roles,
        }
    }

    /// Resolve the op to its kernel family and apply `f` to it: the one
    /// `match` on the variants, so a new variant compiles only once its
    /// family exists, and every fact of an [`OpDescriptor`] comes from it.
    fn family<F: FamilyFn>(&self, m: usize, n: usize, f: F) -> F::Out {
        match *self {
            StageOp::Stage1Split { stride, .. } => f.call(Stage1 { m, n, stride }),
            StageOp::Stage2Split {
                stride_in, steps, ..
            } => f.call(Stage2 {
                m,
                n,
                stride_in,
                steps,
            }),
            StageOp::BaseSolve {
                chain_len,
                stride,
                thomas_chains,
                variant,
                ..
            } => f.call(Base {
                m,
                n,
                chain_len,
                stride,
                t4: thomas_chains.min(chain_len),
                variant,
            }),
            StageOp::InterleavePack { systems, size } => f.call(Interleave {
                m: systems,
                n: size,
            }),
            StageOp::InterleavedThomas { systems, size } => f.call(IThomas {
                m: systems,
                n: size,
            }),
            StageOp::Deinterleave { systems, size } => f.call(Deinterleave {
                m: systems,
                n: size,
            }),
        }
    }
}

/// A computation over one kernel family, applied by `StageOp::family`.
trait FamilyFn {
    type Out;
    fn call<F: Family>(self, family: F) -> Self::Out;
}

struct Kind;
impl FamilyFn for Kind {
    type Out = (&'static str, BufferRoles);
    fn call<F: Family>(self, _: F) -> Self::Out {
        (F::STAGE, F::ROLES)
    }
}

struct ConfigOf(usize);
impl FamilyFn for ConfigOf {
    type Out = LaunchConfig;
    fn call<F: Family>(self, family: F) -> LaunchConfig {
        family.config(self.0)
    }
}

struct RecurrenceOf;
impl FamilyFn for RecurrenceOf {
    type Out = RecurrenceKind;
    fn call<F: Family>(self, family: F) -> RecurrenceKind {
        family.recurrence()
    }
}

struct AccessOf;
impl FamilyFn for AccessOf {
    type Out = KernelAccessSummary;
    fn call<F: Family>(self, family: F) -> KernelAccessSummary {
        family.access()
    }
}

struct Run<'a, 'io, T: GpuScalar>(&'a mut Gpu<T>, Option<LaunchIo<'io>>);
impl<T: GpuScalar> FamilyFn for Run<'_, '_, T> {
    type Out = Result<KernelStats>;
    fn call<F: Family>(self, family: F) -> Result<KernelStats> {
        family.run(self.0, self.1)
    }
}

/// Every static fact of one plan op over `m` systems of padded size
/// `padded_size`, all read off the op's kernel family (picked by the one
/// `match` on [`StageOp`]'s variants): the stage name and buffer roles
/// when [`StageOp::describe`] builds it, the rest on demand, so a
/// launch's label, config, access summary and recurrence cannot disagree.
/// The executing and pricing paths build only the [`LaunchConfig`]
/// (inside [`OpDescriptor::launch`] / [`OpDescriptor::price`]); the
/// summaries are built for the analyzers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDescriptor {
    /// The op described.
    pub op: StageOp,
    /// Number of systems in the batch.
    m: usize,
    /// Padded (power-of-two) equations per system.
    padded_size: usize,
    /// Short stage name, as used in trace categories, `stage_ms/<stage>`
    /// metric keys and schedule node labels.
    pub stage: &'static str,
    /// The buffers the launch reads and writes, and whether the
    /// coefficient bundles swap afterwards.
    pub roles: BufferRoles,
}

impl OpDescriptor {
    /// The launch configuration for elements of `elem_bytes` — the
    /// configuration the launch runs with.
    #[must_use]
    pub fn config(&self, elem_bytes: usize) -> LaunchConfig {
        self.op
            .family(self.m, self.padded_size, ConfigOf(elem_bytes))
    }

    /// The numeric recurrence the launch applies.
    #[must_use]
    pub fn recurrence(&self) -> RecurrenceKind {
        self.op.family(self.m, self.padded_size, RecurrenceOf)
    }

    /// The affine access summary of the launch, labelled like its config.
    #[must_use]
    pub fn access_summary(&self) -> KernelAccessSummary {
        self.op.family(self.m, self.padded_size, AccessOf)
    }

    /// Launch the op on `inputs` and `outputs`, given in the order of
    /// [`OpDescriptor::roles`].
    pub fn launch<T: GpuScalar>(
        &self,
        gpu: &mut Gpu<T>,
        inputs: &[BufferId],
        outputs: &[BufferId],
    ) -> Result<KernelStats> {
        let (reads, writes) = (self.roles.reads.len(), self.roles.writes.len());
        if inputs.len() != reads || outputs.len() != writes {
            return Err(CoreError::BadParams {
                detail: format!(
                    "{} launch takes {reads} inputs and {writes} outputs, got {} and {}",
                    self.stage,
                    inputs.len(),
                    outputs.len()
                ),
            });
        }
        let run = Run(gpu, Some((inputs, outputs)));
        self.op.family(self.m, self.padded_size, run)
    }

    /// Charge the launch from its cost meters alone, without computing
    /// (see [`Gpu::price`]): the same [`KernelStats`] as
    /// [`OpDescriptor::launch`].
    pub fn price<T: GpuScalar>(&self, gpu: &mut Gpu<T>) -> Result<KernelStats> {
        self.op.family(self.m, self.padded_size, Run(gpu, None))
    }
}

/// An executable multi-stage solve plan.
#[derive(Debug, Clone, Serialize)]
pub struct SolvePlan {
    /// The workload this plan solves.
    pub shape: WorkloadShape,
    /// System size after padding to a power of two.
    pub padded_size: usize,
    /// Parameters the plan was built from.
    pub params: SolverParams,
    /// Number of stage-1 launches.
    pub stage1_steps: u32,
    /// Number of PCR steps performed by the single stage-2 launch (0 = no
    /// stage-2 launch).
    pub stage2_steps: u32,
    /// Final on-chip subsystem length.
    pub chain_len: usize,
    /// Total split factor (`padded_size / chain_len`).
    pub split_factor: usize,
    /// The ordered stage invocations.
    pub ops: Vec<StageOp>,
}

impl SolvePlan {
    /// Build the plan for a workload on a device.
    ///
    /// Mirrors the paper's workflow (Figure 1):
    /// * systems already fitting on-chip go straight to the base kernel;
    /// * with at least `stage1_target_systems` independent systems, stage 2
    ///   splits each system independently in one launch;
    /// * otherwise stage 1 splits cooperatively (one launch per step) until
    ///   the target count is reached, then stage 2 finishes the splitting.
    ///
    /// ```
    /// use trisolve_core::{SolvePlan, SolverParams};
    /// use trisolve_gpu_sim::DeviceSpec;
    /// use trisolve_tridiag::workloads::WorkloadShape;
    ///
    /// // One 2M-equation system on a GTX 470 with default parameters:
    /// // stage 1 runs until 16 subsystems exist, stage 2 finishes the
    /// // splitting, the base kernel solves 8192 chains of 256.
    /// let plan = SolvePlan::build(
    ///     WorkloadShape::new(1, 2 * 1024 * 1024),
    ///     &SolverParams::default_untuned(),
    ///     DeviceSpec::gtx_470().queryable(),
    ///     4,
    /// ).unwrap();
    /// assert_eq!(plan.stage1_steps, 4);
    /// assert_eq!(plan.stage2_steps, 9);
    /// assert_eq!(plan.num_launches(), 6); // 4 + 1 + base kernel
    /// assert_eq!(plan.split_factor, 8192);
    /// ```
    pub fn build(
        shape: WorkloadShape,
        params: &SolverParams,
        device: &QueryableProps,
        elem_bytes: usize,
    ) -> Result<SolvePlan> {
        params.validate(device, elem_bytes)?;
        if shape.num_systems == 0 || shape.system_size == 0 {
            return Err(CoreError::BadParams {
                detail: "workload must have at least one system and one equation".into(),
            });
        }
        let m = shape.num_systems;
        let n = shape.system_size.next_power_of_two();

        // The stage-skip fast path: no splitting, no on-chip stage — repack
        // into interleaved layout, one batched-Thomas launch, repack back.
        // Only admissible with at least a warp's worth of systems, otherwise
        // the layout's coalescing premise (consecutive threads own
        // consecutive systems) collapses.
        if params.variant == BaseVariant::Interleaved {
            if m < INTERLEAVED_MIN_SYSTEMS {
                return Err(CoreError::BadParams {
                    detail: format!(
                        "Interleaved layout needs >= {INTERLEAVED_MIN_SYSTEMS} systems, got {m}"
                    ),
                });
            }
            let ops = vec![
                StageOp::InterleavePack {
                    systems: m,
                    size: n,
                },
                StageOp::InterleavedThomas {
                    systems: m,
                    size: n,
                },
                StageOp::Deinterleave {
                    systems: m,
                    size: n,
                },
            ];
            return Ok(SolvePlan {
                shape,
                padded_size: n,
                params: *params,
                stage1_steps: 0,
                stage2_steps: 0,
                chain_len: n,
                split_factor: 1,
                ops,
            });
        }

        let chain_len = params.onchip_size.min(n);
        let split_factor = n / chain_len;
        let total_split_steps = split_factor.trailing_zeros();

        // Stage 1 runs while independent systems < target, up to the number
        // of splits available.
        let mut stage1_steps = 0u32;
        if split_factor > 1 {
            let mut systems = m;
            while systems < params.stage1_target_systems && stage1_steps < total_split_steps {
                systems *= 2;
                stage1_steps += 1;
            }
        }
        let stage2_steps = total_split_steps - stage1_steps;

        let mut ops = Vec::new();
        let mut stride = 1usize;
        let mut systems = m;
        for _ in 0..stage1_steps {
            ops.push(StageOp::Stage1Split {
                stride,
                systems_now: systems,
            });
            stride *= 2;
            systems *= 2;
        }
        if stage2_steps > 0 {
            ops.push(StageOp::Stage2Split {
                chains: systems,
                stride_in: stride,
                steps: stage2_steps,
            });
            stride <<= stage2_steps;
            systems <<= stage2_steps;
        }
        let thomas_chains = params.thomas_switch.min(chain_len);
        ops.push(StageOp::BaseSolve {
            chains: systems,
            chain_len,
            stride,
            thomas_chains,
            variant: if stride == 1 {
                // With unit stride both variants coincide; normalise.
                BaseVariant::Strided
            } else {
                params.variant
            },
        });

        Ok(SolvePlan {
            shape,
            padded_size: n,
            params: *params,
            stage1_steps,
            stage2_steps,
            chain_len,
            split_factor,
            ops,
        })
    }

    /// Total number of kernel launches this plan performs.
    pub fn num_launches(&self) -> usize {
        self.ops.len()
    }

    /// Build the plan and statically validate every launch against the
    /// device, refusing it with [`CoreError::PlanRejected`] when the
    /// device would reject a launch outright. The one admission decision:
    /// the execution engine's `plan_for` and the analyzer's
    /// `statically_rejected` both call it. On success the report carries
    /// any warnings.
    pub fn admit(
        shape: WorkloadShape,
        params: &SolverParams,
        device: &QueryableProps,
        elem_bytes: usize,
    ) -> Result<(SolvePlan, ValidationReport)> {
        let plan = SolvePlan::build(shape, params, device, elem_bytes)?;
        let report = plan.validate(device, elem_bytes);
        if report.has_errors() {
            return Err(CoreError::PlanRejected { report });
        }
        Ok((plan, report))
    }

    /// The descriptor of every stage invocation, in execution order.
    pub fn descriptors(&self) -> impl Iterator<Item = OpDescriptor> + '_ {
        let (m, np) = (self.shape.num_systems, self.padded_size);
        self.ops.iter().map(move |op| op.describe(m, np))
    }

    /// Statically validate every launch of this plan against a device's
    /// queryable limits, *before* any kernel runs. Errors mean the device
    /// would reject a launch outright; warnings flag launches that run but
    /// under-utilise the machine (see [`trisolve_gpu_sim::validate_launch`]).
    pub fn validate(&self, device: &QueryableProps, elem_bytes: usize) -> ValidationReport {
        let configs: Vec<_> = self.descriptors().map(|d| d.config(elem_bytes)).collect();
        validate_launches(device, &configs)
    }

    /// Human-readable one-line summary, e.g.
    /// `1x2M: 4x stage1 + stage2(x8) + base[512@4096]`.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.stage1_steps > 0 {
            parts.push(format!("{}x stage1", self.stage1_steps));
        }
        if self.stage2_steps > 0 {
            parts.push(format!("stage2(x{})", self.stage2_steps));
        }
        match self.ops.last() {
            Some(StageOp::BaseSolve {
                chain_len, stride, ..
            }) => parts.push(format!("base[{chain_len}@{stride}]")),
            Some(StageOp::Deinterleave { systems, size }) => {
                parts.push(format!(
                    "interleave + ithomas[{systems}x{size}] + deinterleave"
                ));
            }
            _ => {}
        }
        format!("{}: {}", self.shape.label(), parts.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::DeviceSpec;

    fn q470() -> QueryableProps {
        DeviceSpec::gtx_470().queryable().clone()
    }

    fn params(p1: usize, s3: usize, t4: usize) -> SolverParams {
        SolverParams {
            stage1_target_systems: p1,
            onchip_size: s3,
            thomas_switch: t4,
            variant: BaseVariant::Strided,
        }
    }

    #[test]
    fn small_systems_go_straight_to_base() {
        let plan = SolvePlan::build(
            WorkloadShape::new(1000, 256),
            &params(16, 512, 64),
            &q470(),
            4,
        )
        .unwrap();
        assert_eq!(plan.stage1_steps, 0);
        assert_eq!(plan.stage2_steps, 0);
        assert_eq!(plan.ops.len(), 1);
        assert!(matches!(
            plan.ops[0],
            StageOp::BaseSolve {
                chains: 1000,
                chain_len: 256,
                stride: 1,
                thomas_chains: 64,
                ..
            }
        ));
    }

    #[test]
    fn many_large_systems_use_stage2_only() {
        let plan = SolvePlan::build(
            WorkloadShape::new(1024, 4096),
            &params(16, 512, 64),
            &q470(),
            4,
        )
        .unwrap();
        assert_eq!(plan.stage1_steps, 0);
        assert_eq!(plan.stage2_steps, 3); // 4096 -> 512 is 3 halvings
        assert_eq!(plan.split_factor, 8);
        assert_eq!(plan.ops.len(), 2);
        assert!(matches!(
            plan.ops[1],
            StageOp::BaseSolve {
                chains: 8192,
                chain_len: 512,
                stride: 8,
                ..
            }
        ));
    }

    #[test]
    fn single_huge_system_uses_stage1_then_stage2() {
        let plan = SolvePlan::build(
            WorkloadShape::new(1, 2 * 1024 * 1024),
            &params(16, 512, 128),
            &q470(),
            4,
        )
        .unwrap();
        // 1 -> 16 systems needs 4 stage-1 steps; 2M/512 = 4096 = 2^12 total.
        assert_eq!(plan.stage1_steps, 4);
        assert_eq!(plan.stage2_steps, 8);
        assert_eq!(plan.num_launches(), 4 + 1 + 1);
        // Stage-1 strides double per step.
        let strides: Vec<usize> = plan
            .ops
            .iter()
            .filter_map(|op| match op {
                StageOp::Stage1Split { stride, .. } => Some(*stride),
                _ => None,
            })
            .collect();
        assert_eq!(strides, vec![1, 2, 4, 8]);
        assert!(matches!(
            plan.ops[4],
            StageOp::Stage2Split {
                chains: 16,
                stride_in: 16,
                steps: 8
            }
        ));
    }

    #[test]
    fn stage1_stops_when_fully_split() {
        // Tiny split budget: target 64 systems but only 2 splits available.
        let plan = SolvePlan::build(
            WorkloadShape::new(1, 1024),
            &params(64, 256, 32),
            &q470(),
            4,
        )
        .unwrap();
        assert_eq!(plan.stage1_steps, 2);
        assert_eq!(plan.stage2_steps, 0);
        assert_eq!(plan.split_factor, 4);
    }

    #[test]
    fn non_power_of_two_systems_are_padded() {
        let plan = SolvePlan::build(
            WorkloadShape::new(4, 1000),
            &params(16, 256, 32),
            &q470(),
            4,
        )
        .unwrap();
        assert_eq!(plan.padded_size, 1024);
        assert_eq!(plan.split_factor, 4);
    }

    #[test]
    fn thomas_switch_clamped_to_chain_length() {
        let plan =
            SolvePlan::build(WorkloadShape::new(8, 64), &params(16, 512, 128), &q470(), 4).unwrap();
        assert!(matches!(
            plan.ops[0],
            StageOp::BaseSolve {
                chain_len: 64,
                thomas_chains: 64,
                ..
            }
        ));
    }

    #[test]
    fn unit_stride_normalises_variant() {
        let mut p = params(16, 512, 64);
        p.variant = BaseVariant::Coalesced;
        let plan = SolvePlan::build(WorkloadShape::new(10, 512), &p, &q470(), 4).unwrap();
        assert!(matches!(
            plan.ops[0],
            StageOp::BaseSolve {
                variant: BaseVariant::Strided,
                ..
            }
        ));
        // But with real splitting the requested variant is preserved.
        let plan = SolvePlan::build(WorkloadShape::new(100, 4096), &p, &q470(), 4).unwrap();
        assert!(matches!(
            plan.ops.last().unwrap(),
            StageOp::BaseSolve {
                variant: BaseVariant::Coalesced,
                ..
            }
        ));
    }

    #[test]
    fn equation_conservation() {
        // chains * chain_len == m * padded_size for every plan.
        for (m, n) in [(1usize, 1 << 21), (7, 300), (1024, 1024), (3, 8192)] {
            let plan = SolvePlan::build(WorkloadShape::new(m, n), &params(16, 256, 64), &q470(), 4)
                .unwrap();
            if let Some(StageOp::BaseSolve {
                chains, chain_len, ..
            }) = plan.ops.last()
            {
                assert_eq!(chains * chain_len, m * plan.padded_size, "m={m} n={n}");
            } else {
                panic!("plan must end with BaseSolve");
            }
        }
    }

    #[test]
    fn interleaved_plan_skips_every_stage() {
        let mut p = params(16, 256, 32);
        p.variant = BaseVariant::Interleaved;
        let plan = SolvePlan::build(WorkloadShape::new(65536, 64), &p, &q470(), 4).unwrap();
        assert_eq!(plan.stage1_steps, 0);
        assert_eq!(plan.stage2_steps, 0);
        assert_eq!(plan.split_factor, 1);
        assert_eq!(plan.chain_len, 64);
        assert_eq!(
            plan.ops,
            vec![
                StageOp::InterleavePack {
                    systems: 65536,
                    size: 64
                },
                StageOp::InterleavedThomas {
                    systems: 65536,
                    size: 64
                },
                StageOp::Deinterleave {
                    systems: 65536,
                    size: 64
                },
            ]
        );
        // The fast path's only arithmetic is one full-length Thomas chain.
        let recs: Vec<_> = plan.descriptors().map(|d| d.recurrence()).collect();
        assert!(recs[0].is_exact());
        assert_eq!(recs[1], RecurrenceKind::Thomas { chain_len: 64 });
        assert!(recs[2].is_exact());
        let stages: Vec<_> = plan.descriptors().map(|d| d.stage).collect();
        assert_eq!(stages, ["interleave", "ithomas", "deinterleave"]);
        assert!(!plan.validate(&q470(), 4).has_errors());
        assert!(plan.summary().contains("ithomas[65536x64]"));
    }

    #[test]
    fn interleaved_plan_pads_system_size() {
        let mut p = params(16, 256, 32);
        p.variant = BaseVariant::Interleaved;
        let plan = SolvePlan::build(WorkloadShape::new(1024, 48), &p, &q470(), 8).unwrap();
        assert_eq!(plan.padded_size, 64);
        assert!(matches!(
            plan.ops[1],
            StageOp::InterleavedThomas {
                systems: 1024,
                size: 64
            }
        ));
    }

    #[test]
    fn interleaved_rejects_tiny_batches() {
        let mut p = params(16, 256, 32);
        p.variant = BaseVariant::Interleaved;
        let err = SolvePlan::build(WorkloadShape::new(8, 64), &p, &q470(), 4);
        assert!(matches!(err, Err(CoreError::BadParams { .. })));
        // A full warp of systems is the floor.
        assert!(SolvePlan::build(WorkloadShape::new(32, 64), &p, &q470(), 4).is_ok());
    }

    #[test]
    fn staged_plan_recurrences_cover_the_padded_system() {
        let plan = SolvePlan::build(
            WorkloadShape::new(1, 2 * 1024 * 1024),
            &params(16, 512, 128),
            &q470(),
            4,
        )
        .unwrap();
        let recs: Vec<_> = plan.descriptors().map(|d| d.recurrence()).collect();
        // 4 stage-1 single steps, one stage-2 launch of 8 steps, hybrid base.
        assert_eq!(recs.len(), 6);
        assert_eq!(recs[0], RecurrenceKind::Pcr { steps: 1 });
        assert_eq!(recs[4], RecurrenceKind::Pcr { steps: 8 });
        assert_eq!(
            recs[5],
            RecurrenceKind::Hybrid {
                pcr_steps: 7,
                thomas_len: 4
            }
        );
        // Total PCR halvings + the Thomas chains cover the padded system.
        let total_pcr: u32 = recs.iter().map(RecurrenceKind::pcr_steps).sum();
        assert_eq!(1usize << total_pcr, 2 * 1024 * 1024 / 4);
    }

    #[test]
    fn launch_refuses_buffers_that_do_not_match_the_roles() {
        use trisolve_gpu_sim::{DeviceSpec, Gpu};
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let bufs: Vec<_> = (0..5).map(|_| gpu.alloc(64).unwrap()).collect();
        let base = StageOp::BaseSolve {
            chains: 1,
            chain_len: 64,
            stride: 1,
            thomas_chains: 8,
            variant: BaseVariant::Strided,
        }
        .describe(1, 64);
        assert_eq!((base.roles.reads.len(), base.roles.writes.len()), (4, 1));
        // Four coefficient outputs where the base kernel writes one solution.
        let err = base.launch(&mut gpu, &bufs[..4], &bufs[..4]);
        assert!(matches!(err, Err(CoreError::BadParams { .. })), "{err:?}");
        assert!(gpu.timeline().is_empty(), "refused before any launch");
    }

    #[test]
    fn empty_workload_rejected() {
        assert!(
            SolvePlan::build(WorkloadShape::new(0, 128), &params(16, 256, 32), &q470(), 4).is_err()
        );
    }

    #[test]
    fn summary_mentions_stages() {
        let plan = SolvePlan::build(
            WorkloadShape::new(1, 2 * 1024 * 1024),
            &params(16, 512, 128),
            &q470(),
            4,
        )
        .unwrap();
        let s = plan.summary();
        assert!(s.contains("stage1"));
        assert!(s.contains("stage2"));
        assert!(s.contains("base[512@4096]"));
    }
}
