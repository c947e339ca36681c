//! The `trisolve serve-sim` harness: seeded load-generation campaigns over
//! the fault-tolerant solver service ([`trisolve_serve`]), proving the
//! admission / coalescing / breaker / plan-database stack loses nothing —
//! or failing loudly with the violated invariant.
//!
//! Two halves, mirroring the [`crate::chaos`] harness:
//!
//! 1. **Fixture self-check** — forced scenarios each proving one service
//!    mechanism end-to-end: a truncated, checksum-flipped, or
//!    future-versioned plan-database file quarantined (never fatal, never
//!    serving a wrong plan) with the service rebuilding it; the plan
//!    database warm-starting a restarted service to zero tuner
//!    evaluations; and a fault storm tripping a device's circuit breaker
//!    with the half-open probe closing it again.
//! 2. **Campaign** — hundreds of thousands of seeded mixed requests
//!    (sizes, batch sizes, precisions, workload classes, layout
//!    preferences, deadline tiers, bursts) replayed against the paper's
//!    three devices, optionally under chaos (background fault noise plus
//!    staggered per-device storms). The gate: zero lost requests, zero
//!    completions past their deadline, zero cost-model underestimates,
//!    zero steady-state tuner evaluations after warm-up — and under
//!    chaos, at least one breaker trip *and* recovery, with every breaker
//!    closed again at the end (no deadlock).
//!
//! The harness is a library so the CI gate (`scripts/check.sh`), the
//! integration tests and the CLI subcommand all run the same code.

use std::path::{Path, PathBuf};

use trisolve_gpu_sim::FaultPlan;
use trisolve_serve::{generate, LoadProfile, ServiceStats, SolveService, StormWindow};

/// Base seed for campaigns (the paper's publication year, like the bench,
/// sanitize and chaos harnesses).
pub const SERVE_SEED: u64 = 2011;

/// Outcome of one forced-scenario fixture.
#[derive(Debug, Clone)]
pub struct FixtureOutcome {
    /// Fixture name (which service mechanism it forces).
    pub name: &'static str,
    /// Did the service behave exactly as required?
    pub passed: bool,
    /// What happened (narrative or why the check failed).
    pub detail: String,
}

/// Result of a service campaign: the warm-up ledger and the service's own
/// proof counters.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The profile that was run.
    pub profile: LoadProfile,
    /// Tuner evaluations paid warming the cold plan database over the
    /// load generator's closed combo list (0 when the database already
    /// covered it).
    pub warm_evals: u64,
    /// Tuner evaluations a *restarted* service pays re-warming from the
    /// persisted database — the warm start must cross the restart, so
    /// the gate requires 0.
    pub restart_warm_evals: u64,
    /// Plan-database origin the restarted service reported.
    pub restart_db_origin: String,
    /// Entries in the plan database after the campaign.
    pub db_len: usize,
    /// The campaign's service counters (sheds, trips, latencies, …).
    pub stats: ServiceStats,
}

/// The campaign gate: every violated invariant, as a human-readable line.
/// Empty means the campaign passed.
pub fn gate(o: &ServeOutcome) -> Vec<String> {
    let mut v = Vec::new();
    let s = &o.stats;
    if s.lost() != 0 {
        v.push(format!(
            "{} request(s) lost without a disposition",
            s.lost()
        ));
    }
    if s.deadline_misses != 0 {
        v.push(format!(
            "{} accepted request(s) completed past their deadline",
            s.deadline_misses
        ));
    }
    if s.bound_violations != 0 {
        v.push(format!(
            "{} window(s) outran the admission cost bound",
            s.bound_violations
        ));
    }
    if s.tuner_evals != 0 {
        v.push(format!(
            "{} tuner evaluation(s) in steady state despite the warm plan database",
            s.tuner_evals
        ));
    }
    if o.restart_warm_evals != 0 {
        v.push(format!(
            "restarted service re-paid {} tuner evaluation(s): warm start \
             did not cross the restart",
            o.restart_warm_evals
        ));
    }
    if o.restart_db_origin != "loaded" {
        v.push(format!(
            "restarted service's plan database came up `{}`, not `loaded`",
            o.restart_db_origin
        ));
    }
    if o.profile.chaos {
        if s.breaker_trips == 0 {
            v.push("chaos storms never tripped a breaker".into());
        }
        if s.breaker_recoveries == 0 {
            v.push("no breaker probe ever recovered".into());
        }
        if s.faults == 0 {
            v.push("chaos mode injected no faults".into());
        }
    }
    // A breaker may legitimately end open or half-open when a storm runs
    // close to the end of the stream; deadlock is refusing traffic even
    // one full cooldown later (a leaked probe slot).
    for d in &s.devices {
        if !d.admits_after_cooldown {
            v.push(format!(
                "breaker deadlock: {} ended `{}` and still refuses traffic \
                 after its cooldown",
                d.name, d.final_breaker_state
            ));
        }
    }
    v
}

/// Where a campaign for `profile` persists its plan database. Deleted
/// before a run so the warm-up is genuinely cold. Keyed by the whole
/// profile and the process id, so concurrent campaigns — parallel tests,
/// or two CLI runs — never share (and delete) each other's file.
fn campaign_db_path(profile: &LoadProfile) -> PathBuf {
    let LoadProfile {
        requests,
        seed,
        load_scale,
        chaos,
    } = *profile;
    std::env::temp_dir().join(format!(
        "trisolve-serve-sim-db-{}-{requests}-{seed}-{:016x}-{chaos}.json",
        std::process::id(),
        load_scale.to_bits()
    ))
}

/// Run a service campaign: generate the seeded request stream, warm the
/// plan database over the generator's closed combo list, replay the
/// stream, then restart the service over the persisted database and prove
/// the warm start crossed the restart. Deterministic per profile.
pub fn campaign(profile: &LoadProfile) -> Result<ServeOutcome, String> {
    let workload = generate(profile);
    let db_path = campaign_db_path(profile);
    let _ = std::fs::remove_file(&db_path);

    let mut config = workload.config.clone();
    config.plan_db_path = Some(db_path.clone());
    let mut svc = SolveService::new(config.clone());
    let warm_evals = svc.warm_plan_db(&workload.combos);
    let report = svc.run(&workload.requests);
    let db_len = svc.plan_db().len();
    drop(svc);

    // The restart: a fresh service over the persisted database must pay
    // nothing to re-warm the same combo list.
    let mut restarted = SolveService::new(config);
    let restart_db_origin = restarted.plan_db().origin().label().to_string();
    let restart_warm_evals = restarted.warm_plan_db(&workload.combos);
    drop(restarted);
    let _ = std::fs::remove_file(&db_path);

    Ok(ServeOutcome {
        profile: *profile,
        warm_evals,
        restart_warm_evals,
        restart_db_origin,
        db_len,
        stats: report.stats,
    })
}

// ---------------------------------------------------------------------------
// Fixture self-check
// ---------------------------------------------------------------------------

/// The calm mini-campaign the plan-database fixtures run: small enough to
/// be instant, varied enough to persist several database entries.
fn mini_profile() -> LoadProfile {
    LoadProfile {
        requests: 60,
        seed: 7,
        load_scale: 0.5,
        chaos: false,
    }
}

/// Run the mini-campaign against a plan database at `path`. Returns
/// `(origin label, completed, lost, tuner evals, db entries)`.
fn mini_run(path: &Path) -> Result<(String, u64, u64, u64, usize), String> {
    let workload = generate(&mini_profile());
    let mut config = workload.config;
    config.plan_db_path = Some(path.to_path_buf());
    let mut svc = SolveService::new(config);
    let origin = svc.plan_db().origin().label().to_string();
    let report = svc.run(&workload.requests);
    Ok((
        origin,
        report.stats.completed,
        report.stats.lost(),
        report.stats.tuner_evals,
        svc.plan_db().len(),
    ))
}

/// Seed a valid plan database at `path` by running the mini-campaign over
/// a fresh file, and return its serialized bytes.
fn seeded_db(path: &Path) -> Result<String, String> {
    let _ = std::fs::remove_file(path);
    let (origin, _, lost, _, len) = mini_run(path)?;
    if origin != "fresh" || lost != 0 || len == 0 {
        return Err(format!(
            "fixture setup: seeding run came up origin `{origin}`, lost {lost}, {len} entries"
        ));
    }
    std::fs::read_to_string(path).map_err(|e| format!("fixture setup: cannot read db: {e}"))
}

/// One planted-corruption fixture: write `corrupt` over the seeded
/// database, reopen the service, and require quarantine + a clean rebuild.
fn corruption_fixture(
    name: &'static str,
    path: &Path,
    corrupt: String,
) -> Result<FixtureOutcome, String> {
    std::fs::write(path, corrupt).map_err(|e| e.to_string())?;
    let quarantine = path.with_extension("json.quarantined");
    let _ = std::fs::remove_file(&quarantine);

    let (origin, completed, lost, evals, len) = mini_run(path)?;
    // The corrupt bytes must be preserved for post-mortem, the rebuilt
    // database must be loadable, and the campaign must not have noticed:
    // every request completed, re-tuned from scratch (no wrong plan can
    // have been served out of the quarantined file).
    let requarantined = quarantine.exists();
    let (reopened, ..) = mini_run(path)?;
    let passed = origin == "quarantined"
        && requarantined
        && lost == 0
        && completed > 0
        && evals > 0
        && len > 0
        && reopened == "loaded";
    Ok(FixtureOutcome {
        name,
        passed,
        detail: format!(
            "origin `{origin}`, quarantine file: {requarantined}, {completed} completed / \
             {lost} lost, {evals} re-tune evals, rebuilt db ({len} entries) reopened `{reopened}`"
        ),
    })
}

fn truncated_db_fixture(path: &Path) -> Result<FixtureOutcome, String> {
    let valid = seeded_db(path)?;
    corruption_fixture(
        "truncated plan DB is quarantined and rebuilt",
        path,
        valid[..valid.len() / 2].to_string(),
    )
}

fn flipped_checksum_fixture(path: &Path) -> Result<FixtureOutcome, String> {
    let valid = seeded_db(path)?;
    let marker = "\"checksum\":\"";
    let at = valid
        .find(marker)
        .ok_or("fixture setup: no checksum field in db")?
        + marker.len();
    let mut bytes = valid.into_bytes();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    corruption_fixture(
        "flipped-checksum plan DB is quarantined and rebuilt",
        path,
        String::from_utf8(bytes).map_err(|e| e.to_string())?,
    )
}

fn future_version_fixture(path: &Path) -> Result<FixtureOutcome, String> {
    let valid = seeded_db(path)?;
    let marker = "\"format_version\":1";
    if !valid.contains(marker) {
        return Err("fixture setup: no format_version field in db".into());
    }
    corruption_fixture(
        "future-version plan DB is quarantined, not mis-parsed",
        path,
        valid.replace(marker, "\"format_version\":99"),
    )
}

fn warm_restart_fixture(path: &Path) -> Result<FixtureOutcome, String> {
    let _ = std::fs::remove_file(path);
    let workload = generate(&mini_profile());
    let mut config = workload.config;
    config.plan_db_path = Some(path.to_path_buf());

    let mut cold = SolveService::new(config.clone());
    let cold_evals = cold.warm_plan_db(&workload.combos);
    let cold_report = cold.run(&workload.requests);
    drop(cold);

    let mut warm = SolveService::new(config);
    let origin = warm.plan_db().origin().label().to_string();
    let warm_evals = warm.warm_plan_db(&workload.combos);
    let warm_report = warm.run(&workload.requests);

    let passed = cold_evals > 0
        && cold_report.stats.tuner_evals == 0
        && origin == "loaded"
        && warm_evals == 0
        && warm_report.stats.tuner_evals == 0
        && warm_report.stats.lost() == 0;
    Ok(FixtureOutcome {
        name: "plan DB warm start crosses a service restart",
        passed,
        detail: format!(
            "cold warm-up {cold_evals} evals then 0 in-campaign; restarted service \
             (db `{origin}`) re-warmed for {warm_evals} and ran {} requests at \
             {} evals",
            warm_report.stats.completed, warm_report.stats.tuner_evals
        ),
    })
}

fn breaker_storm_fixture() -> Result<FixtureOutcome, String> {
    // A calm stream with one near-total launch-failure storm planted over
    // its first half: the storm's device must trip, its backlog must
    // re-route (nothing lost), and the half-open probe must close the
    // breaker once the storm passes.
    let mut profile = mini_profile();
    profile.requests = 160;
    let workload = generate(&profile);
    let mut config = workload.config;
    let span_s = workload.requests.last().map_or(1.0, |r| r.arrival_s);
    config.storms = vec![StormWindow {
        device: 0,
        start_s: 0.0,
        end_s: span_s * 0.5,
        plan: FaultPlan::seeded(7)
            .with_launch_failures(0.97)
            .with_bit_flips(0.5),
    }];
    let mut svc = SolveService::new(config);
    let report = svc.run(&workload.requests);
    let s = &report.stats;
    let healed = s.devices[0].final_breaker_state == "closed";
    let passed = s.breaker_trips >= 1
        && s.breaker_recoveries >= 1
        && s.lost() == 0
        && s.deadline_misses == 0
        && healed;
    Ok(FixtureOutcome {
        name: "storm trips the breaker; the probe closes it again",
        passed,
        detail: format!(
            "{} trip(s), {} recovery(ies), {} faults, {} completed / {} shed / {} lost, \
             breaker ended `{}`",
            s.breaker_trips,
            s.breaker_recoveries,
            s.faults,
            s.completed,
            s.shed_total(),
            s.lost(),
            s.devices[0].final_breaker_state
        ),
    })
}

/// Run the six forced-scenario fixtures. Each proves one service
/// mechanism (quarantine paths, warm restart, breaker lifecycle)
/// end-to-end; a harness that cannot pass its own fixtures proves nothing
/// about the campaign.
pub fn fixture_checks() -> Result<Vec<FixtureOutcome>, String> {
    let dir = std::env::temp_dir().join("trisolve-serve-sim-fixtures");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(vec![
        truncated_db_fixture(&dir.join("truncated.json"))?,
        flipped_checksum_fixture(&dir.join("flipped.json"))?,
        future_version_fixture(&dir.join("future.json"))?,
        warm_restart_fixture(&dir.join("warm.json"))?,
        breaker_storm_fixture()?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixtures_pass() {
        for f in fixture_checks().unwrap() {
            assert!(f.passed, "{}: {}", f.name, f.detail);
        }
    }

    #[test]
    fn mini_campaign_passes_the_gate_and_is_deterministic() {
        let profile = LoadProfile {
            requests: 300,
            seed: SERVE_SEED,
            load_scale: 1.0,
            chaos: false,
        };
        let a = campaign(&profile).unwrap();
        assert!(gate(&a).is_empty(), "{:?}", gate(&a));
        assert!(a.warm_evals > 0);
        assert_eq!(a.restart_warm_evals, 0);
        let b = campaign(&profile).unwrap();
        assert_eq!(a.stats.completed, b.stats.completed);
        assert_eq!(a.stats.shed_total(), b.stats.shed_total());
        assert_eq!(a.stats.batches, b.stats.batches);
        assert_eq!(a.warm_evals, b.warm_evals);
        assert!((a.stats.makespan_s - b.stats.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn chaos_mini_campaign_trips_and_recovers() {
        let profile = LoadProfile {
            requests: 600,
            seed: SERVE_SEED,
            load_scale: 1.0,
            chaos: true,
        };
        let o = campaign(&profile).unwrap();
        assert!(gate(&o).is_empty(), "{:?}", gate(&o));
        assert!(o.stats.breaker_trips >= 1);
        assert!(o.stats.breaker_recoveries >= 1);
        assert!(o.stats.faults > 0);
    }
}
