//! Integration tests for the fault-tolerant solver service through the
//! facade: the planted-corruption fixtures must all pass, every
//! submitted request must reach exactly one terminal disposition (no
//! lost requests), campaigns must be deterministic per seed, chaos must
//! actually trip and recover the breakers, and a damaged plan-database
//! file must never take the service down.

use trisolve::autotune::{DbOrigin, PlanDb};
use trisolve::serve::{generate, LoadProfile, SolveService};
use trisolve::serve_sim;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trisolve-serve-it-{name}.json"))
}

#[test]
fn planted_corruption_fixtures_all_pass() {
    let fixtures = serve_sim::fixture_checks().unwrap();
    assert_eq!(fixtures.len(), 5);
    for f in &fixtures {
        assert!(f.passed, "{} failed: {}", f.name, f.detail);
        assert!(!f.detail.is_empty());
    }
}

/// The ledger invariant through the public facade: every request the
/// generator produced is either completed or shed with a reason —
/// `lost()` counts anything unaccounted for and must be zero.
#[test]
fn every_request_reaches_exactly_one_disposition() {
    let profile = LoadProfile {
        requests: 250,
        seed: 42,
        load_scale: 4.0, // overload on purpose: force real sheds
        chaos: false,
    };
    let workload = generate(&profile);
    let mut svc = SolveService::new(workload.config);
    svc.warm_plan_db(&workload.combos);
    let report = svc.run(&workload.requests);
    let s = &report.stats;
    assert_eq!(s.submitted, 250);
    assert_eq!(s.lost(), 0, "lost requests: {}", s.lost());
    assert_eq!(s.completed + s.shed_total(), s.submitted);
    assert!(s.shed_total() > 0, "overloaded campaign should shed");
    assert_eq!(s.deadline_misses, 0);
    assert_eq!(s.bound_violations, 0);
    assert_eq!(s.tuner_evals, 0, "warm start must cover the campaign");
}

#[test]
fn chaos_campaign_is_gate_clean_and_deterministic() {
    let profile = LoadProfile {
        requests: 600,
        seed: 2011,
        load_scale: 1.0,
        chaos: true,
    };
    let a = serve_sim::campaign(&profile).unwrap();
    let violations = serve_sim::gate(&a);
    assert!(violations.is_empty(), "gate violations: {violations:?}");
    assert!(a.stats.breaker_trips >= 1, "chaos must trip a breaker");
    assert!(a.stats.breaker_recoveries >= 1, "breaker must recover");
    assert!(a.stats.faults > 0);

    let b = serve_sim::campaign(&profile).unwrap();
    assert_eq!(a.stats.completed, b.stats.completed);
    assert_eq!(a.stats.shed_total(), b.stats.shed_total());
    assert_eq!(a.stats.breaker_trips, b.stats.breaker_trips);
    assert_eq!(a.stats.faults, b.stats.faults);
    assert_eq!(a.warm_evals, b.warm_evals);
    assert_eq!(a.stats.makespan_s, b.stats.makespan_s, "simulated clock");
}

/// A plan-database file full of garbage must be quarantined — moved
/// aside, rebuilt empty — and the rebuilt database must work and reopen
/// cleanly. The service layer on top must keep serving throughout
/// (covered end-to-end by the serve-sim fixtures above).
#[test]
fn garbage_plan_db_is_quarantined_and_rebuilt() {
    let path = temp_path("garbage");
    let quarantined = path.with_extension("json.quarantined");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&quarantined);
    std::fs::write(&path, b"not json at all \x00\xff").unwrap();

    let mut db = PlanDb::open(&path);
    assert_eq!(db.origin().label(), "quarantined");
    assert!(quarantined.exists(), "bad file moved aside, not deleted");
    assert_eq!(db.len(), 0);
    assert!(db.get("any-key").is_none());

    // The rebuilt database persists and reopens as a clean load.
    db.save().unwrap();
    let db2 = PlanDb::open(&path);
    assert!(matches!(db2.origin(), DbOrigin::Loaded));

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&quarantined);
}
