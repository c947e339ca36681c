//! Stream schedules for pipelined multi-batch solves, plus the
//! happens-before checker that certifies them (DESIGN.md §3.15).
//!
//! A [`Schedule`] is a [`SolvePlan`] lowered to an explicit DAG: every
//! transfer and kernel of every batch becomes a [`ScheduleNode`] carrying its
//! stream assignment, the buffers it reads and writes (at buffer
//! granularity, matching the dynamic cross-stream sanitizer), and the event
//! edges (`waits`/`records`) that order it against other streams. The
//! pipelined session path executes *from* this object, launching each op
//! on the buffers its node names — the certified artifact and the
//! executed artifact are the same value, so prover and executor cannot
//! drift. [`pipelined_schedule`] is the one admission decision for
//! pipelined solves.
//!
//! [`Schedule::check`] discharges four obligations:
//!
//! 1. **use-before-ready** — every read is happens-before-ordered after a
//!    write of the same buffer;
//! 2. **cross-stream-write-race** — no two *unordered* nodes on distinct
//!    streams conflict on a buffer with at least one writer;
//! 3. **event-wait-cycle** — the program-order + record→wait graph is
//!    acyclic (a cycle is a deadlock on real hardware);
//! 4. **dangling-wait** — every wait names an event some node records
//!    (waiting on a never-recorded event is a silent no-op in CUDA, which
//!    makes the intended ordering edge vanish; statically it is refuted).
//!
//! The happens-before relation is the transitive closure of per-stream
//! program order plus record→wait edges: a recorded event carries
//! completion of everything previously enqueued on the recording stream,
//! exactly the semantics `gpu-sim`'s stream engines implement dynamically.

use crate::kernels::BufferRole;
use crate::plan::{SolvePlan, StageOp};
use crate::{CoreError, Result};
use serde::Serialize;
use std::fmt;

/// The four ordering obligations [`Schedule::check`] discharges, in the
/// order they are checked.
pub const SCHEDULE_OBLIGATIONS: [&str; 4] = [
    "dangling-wait",
    "event-wait-cycle",
    "use-before-ready",
    "cross-stream-write-race",
];

/// A buffer in the pipelined session's double-buffered working set, at the
/// same granularity the dynamic cross-stream sanitizer tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BufKey {
    /// Coefficient-source array `arr` (a/b/c/d) of buffer set `set`.
    Src {
        /// Which double-buffer set (batch parity).
        set: usize,
        /// Which of the four coefficient arrays.
        arr: usize,
    },
    /// Coefficient-destination array `arr` of buffer set `set`.
    Dst {
        /// Which double-buffer set (batch parity).
        set: usize,
        /// Which of the four coefficient arrays.
        arr: usize,
    },
    /// The shared solution buffer (one per session, every batch lands here).
    X,
}

impl fmt::Display for BufKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufKey::Src { set, arr } => write!(f, "src{set}[{arr}]"),
            BufKey::Dst { set, arr } => write!(f, "dst{set}[{arr}]"),
            BufKey::X => write!(f, "x"),
        }
    }
}

/// What a schedule node does when executed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum NodeAction {
    /// Upload batch `batch`'s four padded coefficient arrays.
    H2d {
        /// Index into the batch list.
        batch: usize,
    },
    /// One stage invocation of the plan, applied to batch `batch`'s set.
    Op {
        /// Index into the batch list.
        batch: usize,
        /// The stage invocation (copied from the plan's op list).
        op: StageOp,
    },
    /// Download and unpad batch `batch`'s solution.
    D2h {
        /// Index into the batch list.
        batch: usize,
    },
}

/// One node of the schedule DAG.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScheduleNode {
    /// Human-readable name (`b<batch>/<stage>` style), used in violation
    /// details and fixture descriptions.
    pub label: String,
    /// Stream this node is enqueued on.
    pub stream: usize,
    /// What the node does.
    pub action: NodeAction,
    /// Buffers the node reads.
    pub reads: Vec<BufKey>,
    /// Buffers the node writes.
    pub writes: Vec<BufKey>,
    /// Events this node's stream waits on *before* the action runs.
    pub waits: Vec<usize>,
    /// Events recorded *after* the action completes.
    pub records: Vec<usize>,
}

/// A lowered, executable stream schedule: the object the certifier proves
/// safe and the pipelined session path executes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Schedule {
    /// Number of streams the schedule uses.
    pub streams: usize,
    /// Number of event slots (`waits`/`records` index into this range).
    pub events: usize,
    /// The nodes, in enqueue order (per-stream program order is the order
    /// of each stream's nodes within this list).
    pub nodes: Vec<ScheduleNode>,
}

/// One refuted obligation: which proof failed and on which nodes/buffers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScheduleViolation {
    /// Which obligation failed (one of [`SCHEDULE_OBLIGATIONS`]).
    pub obligation: &'static str,
    /// Node labels and buffer involved.
    pub detail: String,
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.obligation, self.detail)
    }
}

/// The buffer `role` names for a batch on buffer set `set`, whose current
/// coefficient bundle is the source set (`cur_is_src`) or the destination
/// set.
pub(crate) fn resolve(role: BufferRole, set: usize, cur_is_src: bool) -> BufKey {
    match role {
        BufferRole::Cur(arr) if cur_is_src => BufKey::Src { set, arr },
        BufferRole::Cur(arr) => BufKey::Dst { set, arr },
        BufferRole::Alt(arr) if cur_is_src => BufKey::Dst { set, arr },
        BufferRole::Alt(arr) => BufKey::Src { set, arr },
        BufferRole::X => BufKey::X,
    }
}

/// Lower a plan to a stream schedule for `batches` back-to-back batches on
/// `streams` streams.
///
/// Batch `k` runs on stream `k % streams` and owns buffer set `k % 2`
/// (double buffering), so consecutive batches touch disjoint coefficient
/// buffers and only share the solution buffer `x`. The lowering inserts
/// exactly two kinds of event edges:
///
/// * batch `k`'s first `x`-writing node waits on event `k-1`, recorded at
///   batch `k-1`'s D2H — the write-after-read edge protecting the previous
///   batch's in-flight download;
/// * batch `k`'s H2D waits on event `k-2` — the set-reuse edge (same
///   parity ⇒ same buffers). With two streams this is a same-stream wait
///   and therefore trivially satisfied, but it keeps the lowering safe for
///   any stream count.
///
/// **Enqueue order matters.** The device serves each engine's queue in
/// issue order (one compute + one copy engine, Fermi-style), so enqueuing
/// batches depth-first would park batch `k`'s D2H at the head of the copy
/// queue and serialize batch `k+1`'s uploads behind it — zero overlap, the
/// classic Fermi false-serialization trap. The lowering therefore emits
/// each *pair* of batches software-pipelined: both uploads first, then
/// batch `k`'s compute + download, then batch `k+1`'s — so `k+1`'s uploads
/// overlap `k`'s compute and `k`'s download overlaps `k+1`'s splitting
/// stages. Waits are always enqueued after the record they name (CUDA's
/// `cudaStreamWaitEvent` captures the event at enqueue time; see
/// [`Schedule::check`]).
pub fn lower_schedule(plan: &SolvePlan, batches: usize, streams: usize) -> Schedule {
    let streams = streams.max(1);
    // Build each batch's node list (upload, ops, download) depth-first…
    let batch_nodes = |k: usize| -> Vec<ScheduleNode> {
        let stream = k % streams;
        let set = k % 2;
        let mut cur_is_src = true;
        let mut nodes = Vec::with_capacity(plan.ops.len() + 2);
        let mut h2d_waits = Vec::new();
        if k >= 2 {
            h2d_waits.push(k - 2);
        }
        nodes.push(ScheduleNode {
            label: format!("b{k}/h2d"),
            stream,
            action: NodeAction::H2d { batch: k },
            reads: Vec::new(),
            writes: (0..4).map(|arr| BufKey::Src { set, arr }).collect(),
            waits: h2d_waits,
            records: Vec::new(),
        });
        let mut x_guarded = k == 0;
        for (i, d) in plan.descriptors().enumerate() {
            let keys = |roles: &[BufferRole]| -> Vec<BufKey> {
                roles.iter().map(|&r| resolve(r, set, cur_is_src)).collect()
            };
            let (reads, writes) = (keys(d.roles.reads), keys(d.roles.writes));
            let mut waits = Vec::new();
            if !x_guarded && writes.contains(&BufKey::X) {
                waits.push(k - 1);
                x_guarded = true;
            }
            nodes.push(ScheduleNode {
                label: format!("b{k}/{}#{i}", d.stage),
                stream,
                action: NodeAction::Op { batch: k, op: d.op },
                reads,
                writes,
                waits,
                records: Vec::new(),
            });
            if d.roles.swap {
                cur_is_src = !cur_is_src;
            }
        }
        nodes.push(ScheduleNode {
            label: format!("b{k}/d2h"),
            stream,
            action: NodeAction::D2h { batch: k },
            reads: vec![BufKey::X],
            writes: Vec::new(),
            waits: Vec::new(),
            records: vec![k],
        });
        nodes
    };
    // …then enqueue pair-wise pipelined: uploads of both batches up front,
    // batch k's body (ending in the D2H that records event k), then batch
    // k+1's body (whose x-writer waits on event k — record before wait).
    let mut nodes = Vec::new();
    let mut k = 0;
    while k < batches {
        if k + 1 < batches {
            let mut a = batch_nodes(k).into_iter();
            let mut b = batch_nodes(k + 1).into_iter();
            nodes.push(a.next().expect("h2d"));
            nodes.push(b.next().expect("h2d"));
            nodes.extend(a);
            nodes.extend(b);
            k += 2;
        } else {
            nodes.extend(batch_nodes(k));
            k += 1;
        }
    }
    Schedule {
        streams,
        events: batches,
        nodes,
    }
}

/// The schedule [`SolveSession::solve_pipelined`](crate::SolveSession::solve_pipelined)
/// executes: `plan` lowered for `batches` batches on two streams, then
/// certified. The one admission decision for pipelined solves — the
/// analyzer's `schedule_rejected` calls it too.
pub fn pipelined_schedule(plan: &SolvePlan, batches: usize) -> Result<Schedule> {
    lower_schedule(plan, batches, 2).certified()
}

impl Schedule {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the schedule has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The schedule itself when [`Schedule::check`] certifies it, otherwise
    /// [`CoreError::ScheduleRejected`] with every refuted obligation.
    pub fn certified(self) -> Result<Schedule> {
        let violations = self.check();
        if violations.is_empty() {
            Ok(self)
        } else {
            Err(CoreError::ScheduleRejected { violations })
        }
    }

    /// Discharge the four ordering obligations. An empty return means the
    /// schedule is certified: every use is ordered after its definition,
    /// no unordered cross-stream pair conflicts, and the declared event
    /// graph is a dependency-satisfiable DAG with no dangling waits.
    ///
    /// **Issue-order semantics.** A wait captures the event at enqueue
    /// time (CUDA `cudaStreamWaitEvent`): if the event's only records are
    /// enqueued *after* the wait, the wait is a silent no-op and the
    /// intended ordering edge does not exist at runtime. The checker
    /// therefore credits a record→wait edge to the happens-before relation
    /// only when the record precedes the wait in enqueue order, and flags
    /// late-recorded waits as dangling. The wait-cycle obligation runs on
    /// the *declared* edge set (record→wait regardless of enqueue order):
    /// a cycle there means the declared ordering is unsatisfiable — a
    /// deadlock under graph-launch execution, silently dropped edges under
    /// stream execution; defective either way.
    #[must_use]
    pub fn check(&self) -> Vec<ScheduleViolation> {
        let mut violations = Vec::new();
        let n = self.nodes.len();

        // Obligation 1: every wait names an event recorded *before* it is
        // enqueued. A later-only record means the runtime wait is a no-op,
        // so the intended edge vanishes — refuted here, and excluded from
        // the happens-before closure below so any race it was supposed to
        // prevent also surfaces.
        let mut recorders: Vec<Vec<usize>> = vec![Vec::new(); self.events];
        for (i, node) in self.nodes.iter().enumerate() {
            for &e in &node.records {
                if e < self.events {
                    recorders[e].push(i);
                }
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for &e in &node.waits {
                if e >= self.events || recorders[e].is_empty() {
                    violations.push(ScheduleViolation {
                        obligation: "dangling-wait",
                        detail: format!(
                            "`{}` waits on event {e}, which no node records",
                            node.label
                        ),
                    });
                } else if recorders[e].iter().all(|&r| r >= i) {
                    violations.push(ScheduleViolation {
                        obligation: "dangling-wait",
                        detail: format!(
                            "`{}` waits on event {e}, recorded only after the wait is \
                             enqueued — the wait is a runtime no-op",
                            node.label
                        ),
                    });
                }
            }
        }

        // Per-stream program order: always forward in enqueue order.
        let max_stream = self.nodes.iter().map(|nd| nd.stream + 1).max().unwrap_or(0);
        let num_streams = self.streams.max(max_stream);
        let mut program_succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_on_stream: Vec<Option<usize>> = vec![None; num_streams];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(p) = last_on_stream[node.stream] {
                program_succ[p].push(i);
            }
            last_on_stream[node.stream] = Some(i);
        }

        // Obligation 2: acyclicity of the *declared* graph — program order
        // plus every record→wait edge as written (the record happens after
        // its node's action, the wait before). Program order alone is
        // acyclic, so any cycle threads through event edges.
        let mut succ: Vec<Vec<usize>> = program_succ.clone();
        let mut indeg = vec![0usize; n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &e in &node.waits {
                if e < self.events {
                    for &r in &recorders[e] {
                        if r != i {
                            succ[r].push(i);
                        }
                    }
                }
            }
        }
        for targets in &succ {
            for &s in targets {
                indeg[s] += 1;
            }
        }
        let mut topo_count = 0usize;
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut indeg_left = indeg;
        while let Some(i) = ready.pop() {
            topo_count += 1;
            for &s in &succ[i] {
                indeg_left[s] -= 1;
                if indeg_left[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if topo_count != n {
            let stuck: Vec<&str> = (0..n)
                .filter(|&i| indeg_left[i] > 0)
                .map(|i| self.nodes[i].label.as_str())
                .collect();
            violations.push(ScheduleViolation {
                obligation: "event-wait-cycle",
                detail: format!(
                    "{} nodes deadlock in a record/wait cycle: {}",
                    stuck.len(),
                    stuck.join(", ")
                ),
            });
            // Happens-before is undefined on a cyclic graph; stop here.
            return violations;
        }

        // Transitive happens-before closure over the *runtime* edges:
        // program order plus record→wait edges whose record precedes the
        // wait in enqueue order. Every runtime edge points forward in the
        // node list, so ascending index order is a topological order.
        let words = n.div_ceil(64);
        let mut hb = vec![vec![0u64; words]; n];
        let mut runtime_succ = program_succ;
        for (i, node) in self.nodes.iter().enumerate() {
            for &e in &node.waits {
                if e < self.events {
                    for &r in &recorders[e] {
                        if r < i {
                            runtime_succ[r].push(i);
                        }
                    }
                }
            }
        }
        for i in 0..n {
            let row = hb[i].clone();
            for &s in &runtime_succ[i] {
                for (w, bits) in row.iter().enumerate() {
                    hb[s][w] |= bits;
                }
                hb[s][i / 64] |= 1 << (i % 64);
            }
        }
        let before = |a: usize, b: usize| hb[b][a / 64] >> (a % 64) & 1 == 1;

        // Obligation 3: use-before-ready — every read has a
        // happens-before-ordered writer.
        for (i, node) in self.nodes.iter().enumerate() {
            for key in &node.reads {
                let defined =
                    (0..n).any(|j| j != i && before(j, i) && self.nodes[j].writes.contains(key));
                if !defined {
                    violations.push(ScheduleViolation {
                        obligation: "use-before-ready",
                        detail: format!(
                            "`{}` reads {key} but no happens-before-ordered node writes it",
                            node.label
                        ),
                    });
                }
            }
        }

        // Obligation 4: cross-stream write race — unordered nodes on
        // distinct streams sharing a buffer with at least one writer.
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (&self.nodes[i], &self.nodes[j]);
                if a.stream == b.stream || before(i, j) || before(j, i) {
                    continue;
                }
                for key in &a.writes {
                    if b.writes.contains(key) || b.reads.contains(key) {
                        violations.push(ScheduleViolation {
                            obligation: "cross-stream-write-race",
                            detail: format!(
                                "`{}` (stream {}) and `{}` (stream {}) conflict on {key} unordered",
                                a.label, a.stream, b.label, b.stream
                            ),
                        });
                    }
                }
                for key in &b.writes {
                    if a.reads.contains(key) && !a.writes.contains(key) {
                        violations.push(ScheduleViolation {
                            obligation: "cross-stream-write-race",
                            detail: format!(
                                "`{}` (stream {}) and `{}` (stream {}) conflict on {key} unordered",
                                b.label, b.stream, a.label, a.stream
                            ),
                        });
                    }
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SolverParams;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::workloads::WorkloadShape;

    fn plan() -> SolvePlan {
        SolvePlan::build(
            WorkloadShape::new(4, 2048),
            &SolverParams::default_untuned(),
            DeviceSpec::gtx_470().queryable(),
            4,
        )
        .unwrap()
    }

    #[test]
    fn lowering_covers_every_op_plus_transfers() {
        let p = plan();
        let s = lower_schedule(&p, 3, 2);
        assert_eq!(s.len(), 3 * (p.ops.len() + 2));
        assert_eq!(s.events, 3);
        // One op node per plan op, in order, per batch.
        let ops: Vec<_> = s
            .nodes
            .iter()
            .filter_map(|nd| match nd.action {
                NodeAction::Op { batch: 0, op } => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(ops, p.ops);
        // Batch parity picks the buffer set; stream alternates.
        let h2d: Vec<_> = s
            .nodes
            .iter()
            .filter(|nd| matches!(nd.action, NodeAction::H2d { .. }))
            .collect();
        assert_eq!(h2d[0].writes[0], BufKey::Src { set: 0, arr: 0 });
        assert_eq!(h2d[1].writes[0], BufKey::Src { set: 1, arr: 0 });
        assert_eq!(h2d[0].stream, 0);
        assert_eq!(h2d[1].stream, 1);
        assert_eq!(h2d[2].stream, 0);
        assert_eq!(h2d[2].waits, vec![0], "set reuse waits two batches back");
    }

    #[test]
    fn lowered_schedules_certify() {
        let p = plan();
        for batches in 1..=4 {
            for streams in 1..=3 {
                let s = lower_schedule(&p, batches, streams);
                let v = s.check();
                assert!(v.is_empty(), "{batches}x{streams}: {v:?}");
            }
        }
    }

    #[test]
    fn x_edge_orders_writer_after_previous_download() {
        let s = lower_schedule(&plan(), 2, 2);
        let writer = s
            .nodes
            .iter()
            .find(|nd| {
                matches!(nd.action, NodeAction::Op { batch: 1, .. })
                    && nd.writes.contains(&BufKey::X)
            })
            .expect("batch 1 writes x");
        assert_eq!(writer.waits, vec![0]);
    }

    #[test]
    fn deleting_the_upload_is_use_before_ready() {
        let mut s = lower_schedule(&plan(), 2, 2);
        s.nodes
            .retain(|nd| !matches!(nd.action, NodeAction::H2d { batch: 0 }));
        let v = s.check();
        assert!(
            v.iter().any(|x| x.obligation == "use-before-ready"),
            "{v:?}"
        );
    }

    #[test]
    fn stripping_waits_is_a_cross_stream_race() {
        let mut s = lower_schedule(&plan(), 2, 2);
        for nd in &mut s.nodes {
            nd.waits.clear();
        }
        let v = s.check();
        assert!(
            v.iter().any(|x| x.obligation == "cross-stream-write-race"),
            "{v:?}"
        );
        assert!(v
            .iter()
            .any(|x| x.detail.contains(" x ") || x.detail.contains("on x")));
    }

    #[test]
    fn reciprocal_waits_deadlock() {
        let mut s = lower_schedule(&plan(), 2, 2);
        // Batch 1 already waits on batch 0's event; make batch 0's first
        // node wait on an event only batch 1's download records.
        let extra = s.events;
        s.events += 1;
        let last = s.nodes.len() - 1;
        s.nodes[last].records.push(extra);
        s.nodes[0].waits.push(extra);
        let v = s.check();
        assert!(
            v.iter().any(|x| x.obligation == "event-wait-cycle"),
            "{v:?}"
        );
    }

    #[test]
    fn waiting_on_an_unrecorded_event_is_refuted() {
        let mut s = lower_schedule(&plan(), 2, 2);
        let extra = s.events;
        s.events += 1;
        s.nodes[0].waits.push(extra);
        let v = s.check();
        assert!(v.iter().any(|x| x.obligation == "dangling-wait"), "{v:?}");
    }

    #[test]
    fn single_stream_single_batch_is_trivially_certified() {
        let s = lower_schedule(&plan(), 1, 1);
        assert!(s.check().is_empty());
        assert!(!s.is_empty());
    }
}
