//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] describes *what* can go wrong and *how often*; a
//! [`FaultInjector`] (attached via [`crate::Gpu::enable_faults`]) rolls a
//! seeded PRNG at each injection site and records every injected fault in a
//! [`FaultLog`]. The contract mirrors the sanitizer's and the tracer's:
//! **a disabled plan is a strict no-op** — [`crate::Gpu::enable_faults`]
//! with [`FaultPlan::disabled`] attaches nothing, so results *and* simulated
//! timings are bit-identical to a run without the injector (asserted in
//! `tests/chaos.rs`).
//!
//! Fault model (the transient failures a production GPU solver must
//! survive):
//!
//! * **transient launch failure** — the launch aborts before running, the
//!   simulated clock does not advance (a sporadic `cudaErrorLaunchFailure`);
//! * **kernel timeout** — the launch is killed by the simulated watchdog;
//! * **H2D / D2H transfer corruption** — one element of the transferred data
//!   has one storage bit flipped;
//! * **ECC-style bit flip** — after a successful launch, one element of one
//!   output buffer is silently corrupted;
//! * **device OOM** — an allocation fails spuriously even though capacity
//!   remains.
//!
//! Everything is deterministic from [`FaultPlan::seed`]: the same plan
//! driving the same operation sequence injects the same faults.

use crate::error::SimError;
use std::fmt;

/// Maximum number of [`FaultRecord`]s kept in a [`FaultLog`]; further
/// injections only bump the counters (and [`FaultLog::dropped`]).
pub const FAULT_LOG_CAP: usize = 1024;

/// SplitMix64: a tiny, high-quality, seedable PRNG (Steele et al., 2014).
/// Inlined so the simulator stays free of external RNG dependencies.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`. `n` must be nonzero.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// Transient launch failure: the kernel never ran.
    LaunchFailure,
    /// The kernel was killed by the simulated watchdog.
    KernelTimeout,
    /// One bit flipped in one element of an H2D or D2H transfer.
    TransferCorruption,
    /// One bit flipped in one element of an output buffer after a
    /// successful launch (an uncorrected ECC event).
    BitFlip,
    /// A spurious allocation failure.
    DeviceOom,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::LaunchFailure => "launch-failure",
            FaultKind::KernelTimeout => "kernel-timeout",
            FaultKind::TransferCorruption => "transfer-corruption",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::DeviceOom => "device-oom",
        };
        f.write_str(s)
    }
}

/// One injected fault: what happened, where, and the specifics.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultRecord {
    /// The fault class.
    pub kind: FaultKind,
    /// Where it was injected: a kernel label, `"h2d"`, `"d2h"`, or
    /// `"alloc"`.
    pub site: String,
    /// Human-readable specifics (element index, bit position, …).
    pub detail: String,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.site, self.detail)
    }
}

/// The accumulated injection history of a [`FaultInjector`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultLog {
    /// Injected transient launch failures.
    pub launch_failures: usize,
    /// Injected kernel timeouts.
    pub kernel_timeouts: usize,
    /// Injected transfer corruptions.
    pub transfer_corruptions: usize,
    /// Injected post-launch bit flips.
    pub bit_flips: usize,
    /// Injected spurious allocation failures.
    pub alloc_failures: usize,
    /// Detailed records, capped at [`FAULT_LOG_CAP`].
    pub records: Vec<FaultRecord>,
    /// Records dropped once the cap was reached.
    pub dropped: usize,
}

impl FaultLog {
    /// Total faults injected (all kinds, including dropped records).
    #[must_use]
    pub fn injected(&self) -> usize {
        self.launch_failures
            + self.kernel_timeouts
            + self.transfer_corruptions
            + self.bit_flips
            + self.alloc_failures
    }

    fn push(&mut self, rec: FaultRecord) {
        match rec.kind {
            FaultKind::LaunchFailure => self.launch_failures += 1,
            FaultKind::KernelTimeout => self.kernel_timeouts += 1,
            FaultKind::TransferCorruption => self.transfer_corruptions += 1,
            FaultKind::BitFlip => self.bit_flips += 1,
            FaultKind::DeviceOom => self.alloc_failures += 1,
        }
        if self.records.len() < FAULT_LOG_CAP {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
    }
}

impl fmt::Display for FaultLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults injected ({} launch failures, {} timeouts, \
             {} transfer corruptions, {} bit flips, {} alloc failures)",
            self.injected(),
            self.launch_failures,
            self.kernel_timeouts,
            self.transfer_corruptions,
            self.bit_flips,
            self.alloc_failures,
        )
    }
}

/// A seeded fault campaign: per-site injection probabilities plus an
/// optional budget. All rates are probabilities in `[0, 1]`; a rate of
/// `0.0` never rolls the PRNG for that site, so partially-enabled plans
/// stay deterministic per site.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FaultPlan {
    /// PRNG seed; equal seeds (and equal op sequences) inject equal faults.
    pub seed: u64,
    /// Probability that a kernel launch fails transiently (never runs).
    pub launch_failure: f64,
    /// Probability that a kernel launch is killed by the watchdog.
    pub kernel_timeout: f64,
    /// Probability that an H2D/D2H transfer corrupts one element.
    pub transfer_corruption: f64,
    /// Probability that a successful launch bit-flips one output element.
    pub bit_flip: f64,
    /// Probability that an allocation fails spuriously.
    pub alloc_failure: f64,
    /// Stop injecting after this many faults (`usize::MAX` = unlimited).
    pub max_faults: usize,
}

impl FaultPlan {
    /// The no-op plan: nothing is ever injected.
    /// [`crate::Gpu::enable_faults`] with this plan attaches no injector at
    /// all, so the run is bit-identical to one without the fault layer.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            launch_failure: 0.0,
            kernel_timeout: 0.0,
            transfer_corruption: 0.0,
            bit_flip: 0.0,
            alloc_failure: 0.0,
            max_faults: usize::MAX,
        }
    }

    /// An all-zero plan with the given seed; combine with the `with_*`
    /// builders to enable specific fault classes.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::disabled()
        }
    }

    /// Set the transient-launch-failure probability.
    #[must_use]
    pub fn with_launch_failures(mut self, rate: f64) -> Self {
        self.launch_failure = rate;
        self
    }

    /// Set the kernel-timeout probability.
    #[must_use]
    pub fn with_kernel_timeouts(mut self, rate: f64) -> Self {
        self.kernel_timeout = rate;
        self
    }

    /// Set the transfer-corruption probability.
    #[must_use]
    pub fn with_transfer_corruption(mut self, rate: f64) -> Self {
        self.transfer_corruption = rate;
        self
    }

    /// Set the post-launch bit-flip probability.
    #[must_use]
    pub fn with_bit_flips(mut self, rate: f64) -> Self {
        self.bit_flip = rate;
        self
    }

    /// Set the spurious-allocation-failure probability.
    #[must_use]
    pub fn with_alloc_failures(mut self, rate: f64) -> Self {
        self.alloc_failure = rate;
        self
    }

    /// Cap the total number of injected faults.
    #[must_use]
    pub fn with_max_faults(mut self, max: usize) -> Self {
        self.max_faults = max;
        self
    }

    /// True when any fault class has a nonzero probability.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.launch_failure > 0.0
            || self.kernel_timeout > 0.0
            || self.transfer_corruption > 0.0
            || self.bit_flip > 0.0
            || self.alloc_failure > 0.0
    }
}

/// Rolls the dice at each injection site of a [`crate::Gpu`] and keeps the
/// [`FaultLog`]. Constructed by [`crate::Gpu::enable_faults`]; not used
/// directly by solver code.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    log: FaultLog,
    /// Lifetime injection count; unlike the log it survives
    /// [`FaultInjector::take_log`], so the fault budget cannot be reset.
    injected_total: usize,
}

impl FaultInjector {
    /// Build an injector for a plan (PRNG seeded from [`FaultPlan::seed`]).
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        Self {
            plan,
            rng,
            log: FaultLog::default(),
            injected_total: 0,
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The injection history so far.
    #[must_use]
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Take the injection history, resetting it (the PRNG stream and the
    /// fault budget consumed so far are unaffected).
    pub fn take_log(&mut self) -> FaultLog {
        std::mem::take(&mut self.log)
    }

    fn budget_left(&self) -> bool {
        self.injected_total < self.plan.max_faults
    }

    /// Roll one site. Never touches the PRNG when `rate == 0`.
    fn roll(&mut self, rate: f64) -> bool {
        let hit = rate > 0.0 && self.budget_left() && self.rng.next_f64() < rate;
        if hit {
            self.injected_total += 1;
        }
        hit
    }

    /// Should this launch fail? Returns the error to raise plus the record
    /// (already logged). Timeout is rolled first, then transient failure.
    pub(crate) fn next_launch_fault(&mut self, label: &str) -> Option<(SimError, FaultRecord)> {
        if self.roll(self.plan.kernel_timeout) {
            let rec = FaultRecord {
                kind: FaultKind::KernelTimeout,
                site: label.to_string(),
                detail: "killed by simulated watchdog".to_string(),
            };
            self.log.push(rec.clone());
            return Some((
                SimError::KernelTimeout {
                    kernel: label.to_string(),
                },
                rec,
            ));
        }
        if self.roll(self.plan.launch_failure) {
            let rec = FaultRecord {
                kind: FaultKind::LaunchFailure,
                site: label.to_string(),
                detail: "transient launch failure".to_string(),
            };
            self.log.push(rec.clone());
            return Some((
                SimError::TransientLaunchFailure {
                    kernel: label.to_string(),
                },
                rec,
            ));
        }
        None
    }

    /// Should this allocation fail spuriously? Returns the record (already
    /// logged); the caller raises the OOM error.
    pub(crate) fn next_alloc_fault(&mut self, bytes: usize) -> Option<FaultRecord> {
        if !self.roll(self.plan.alloc_failure) {
            return None;
        }
        let rec = FaultRecord {
            kind: FaultKind::DeviceOom,
            site: "alloc".to_string(),
            detail: format!("spurious OOM on a {bytes} B allocation"),
        };
        self.log.push(rec.clone());
        Some(rec)
    }

    /// Should this transfer corrupt? Returns `(element index, bit, record)`
    /// for a buffer of `len` elements of `elem_bits` bits each.
    pub(crate) fn next_transfer_fault(
        &mut self,
        direction: &'static str,
        len: usize,
        elem_bits: u32,
    ) -> Option<(usize, u32, FaultRecord)> {
        if len == 0 || !self.roll(self.plan.transfer_corruption) {
            return None;
        }
        let index = self.rng.below(len);
        let bit = self.rng.below(elem_bits as usize) as u32;
        let rec = FaultRecord {
            kind: FaultKind::TransferCorruption,
            site: direction.to_string(),
            detail: format!("flipped bit {bit} of element {index}"),
        };
        self.log.push(rec.clone());
        Some((index, bit, rec))
    }

    /// Should this successful launch silently corrupt an output? Returns
    /// `(output slot, element index, bit, record)` given each output's
    /// length.
    pub(crate) fn next_output_bit_flip(
        &mut self,
        label: &str,
        output_lens: &[usize],
        elem_bits: u32,
    ) -> Option<(usize, usize, u32, FaultRecord)> {
        if output_lens.iter().all(|&l| l == 0) || !self.roll(self.plan.bit_flip) {
            return None;
        }
        // Pick an output slot weighted by nothing in particular — re-roll
        // past empty buffers so the flip always lands somewhere.
        let mut slot = self.rng.below(output_lens.len());
        while output_lens[slot] == 0 {
            slot = self.rng.below(output_lens.len());
        }
        let index = self.rng.below(output_lens[slot]);
        let bit = self.rng.below(elem_bits as usize) as u32;
        let rec = FaultRecord {
            kind: FaultKind::BitFlip,
            site: label.to_string(),
            detail: format!("flipped bit {bit} of element {index} in output {slot}"),
        };
        self.log.push(rec.clone());
        Some((slot, index, bit, rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_not_enabled() {
        assert!(!FaultPlan::disabled().is_enabled());
        assert!(FaultPlan::seeded(7).with_bit_flips(0.1).is_enabled());
    }

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut in_lower_half = 0usize;
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x.to_bits(), b.next_f64().to_bits());
            assert!((0.0..1.0).contains(&x));
            if x < 0.5 {
                in_lower_half += 1;
            }
        }
        assert!((400..600).contains(&in_lower_half), "{in_lower_half}");
    }

    #[test]
    fn launch_faults_respect_rate_and_budget() {
        let plan = FaultPlan::seeded(1)
            .with_launch_failures(1.0)
            .with_max_faults(2);
        let mut inj = FaultInjector::new(plan);
        assert!(inj.next_launch_fault("k1").is_some());
        assert!(inj.next_launch_fault("k2").is_some());
        assert!(inj.next_launch_fault("k3").is_none(), "budget exhausted");
        assert_eq!(inj.log().launch_failures, 2);
        assert_eq!(inj.log().injected(), 2);
    }

    #[test]
    fn zero_rate_site_never_draws() {
        // Two injectors whose only difference is a zero-rate site must
        // produce identical streams at the shared nonzero site.
        let mut a = FaultInjector::new(FaultPlan::seeded(9).with_bit_flips(0.5));
        let mut b = FaultInjector::new(
            FaultPlan::seeded(9)
                .with_bit_flips(0.5)
                .with_launch_failures(0.0),
        );
        for i in 0..64 {
            let _ = a.next_launch_fault("k"); // zero-rate: no draw
            let fa = a.next_output_bit_flip("k", &[128], 32);
            let fb = b.next_output_bit_flip("k", &[128], 32);
            assert_eq!(fa.is_some(), fb.is_some(), "step {i}");
            if let (Some(x), Some(y)) = (fa, fb) {
                assert_eq!((x.0, x.1, x.2), (y.0, y.1, y.2));
            }
        }
    }

    #[test]
    fn kinds_and_records_display() {
        let rec = FaultRecord {
            kind: FaultKind::TransferCorruption,
            site: "h2d".to_string(),
            detail: "flipped bit 3 of element 7".to_string(),
        };
        let s = rec.to_string();
        assert!(s.contains("transfer-corruption"));
        assert!(s.contains("h2d"));
        for kind in [
            FaultKind::LaunchFailure,
            FaultKind::KernelTimeout,
            FaultKind::TransferCorruption,
            FaultKind::BitFlip,
            FaultKind::DeviceOom,
        ] {
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn log_caps_records_but_counts_everything() {
        let plan = FaultPlan::seeded(3).with_launch_failures(1.0);
        let mut inj = FaultInjector::new(plan);
        for _ in 0..FAULT_LOG_CAP + 10 {
            assert!(inj.next_launch_fault("k").is_some());
        }
        assert_eq!(inj.log().records.len(), FAULT_LOG_CAP);
        assert_eq!(inj.log().dropped, 10);
        assert_eq!(inj.log().injected(), FAULT_LOG_CAP + 10);
        assert!(inj.log().to_string().contains("faults injected"));
    }
}
