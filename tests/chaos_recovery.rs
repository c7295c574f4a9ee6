//! Integration test: the full H2 pipeline under a 10%-fault chaos plan
//! completes every trial via retries and fallbacks, and the obs trace
//! records every injected fault and every recovery action.
//!
//! This lives in its own test binary so enabling the process-global obs
//! registry cannot interfere with other tests.

use std::sync::Mutex;

use pauli_codesign::resilience::{run_chaos, ChaosOptions, FaultKind, FaultPlan};

/// The obs registry is process-global; serialize the tests in this binary.
static GATE: Mutex<()> = Mutex::new(());

#[test]
fn h2_pipeline_survives_ten_percent_faults_with_full_obs_audit() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let report = run_chaos(&ChaosOptions {
        seed: 42,
        fault_rate: 0.1,
        trials: 40,
        ..Default::default()
    });
    obs::disable();
    let snap = obs::snapshot();

    // Every trial completed, with faults actually injected and at least
    // one recovery from each policy class.
    assert!(report.survived(), "failures: {}", report.failures());
    assert!(
        report.total("faults injected") > 0,
        "plan injected nothing at 10%"
    );
    assert!(
        report.all_policy_classes_recovered(),
        "tallies: {:?}",
        report.totals()
    );

    // The obs counter agrees with the report's injection count.
    let injected_counter = snap
        .counters
        .get("resilience.faults_injected")
        .copied()
        .unwrap_or(0);
    assert_eq!(injected_counter as usize, report.total("faults injected"));

    // Every injected fault has a `resilience.fault` event naming its site.
    let fault_events: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "resilience.fault")
        .collect();
    assert_eq!(fault_events.len(), report.total("faults injected"));
    // Trials run on parallel threads, so their events interleave; each
    // trial's own events, picked out by its plan seed, name its faults'
    // sites in decision order.
    for outcome in &report.trials {
        let event_sites: Vec<&str> = fault_events
            .iter()
            .filter(|e| e.field("plan_seed") == Some(&obs::Value::UInt(outcome.plan_seed)))
            .map(|e| match e.field("site") {
                Some(obs::Value::Str(s)) => s.as_str(),
                other => panic!("fault event site field: {other:?}"),
            })
            .collect();
        let report_sites: Vec<&str> = outcome.faults.iter().map(|k| k.site()).collect();
        assert_eq!(
            event_sites, report_sites,
            "trial {} trace sites mismatch report",
            outcome.trial
        );
    }

    // Every retry/fallback shows up as a `resilience.recovery` event, and
    // the counters agree with the per-trial bookkeeping.
    let recovery_events = snap
        .events
        .iter()
        .filter(|e| e.name == "resilience.recovery")
        .count();
    assert!(recovery_events > 0, "no recovery events recorded");
    let retries_counter = snap
        .counters
        .get("resilience.retries")
        .copied()
        .unwrap_or(0);
    let fallbacks_counter = snap
        .counters
        .get("resilience.fallbacks")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        recovery_events as u64,
        retries_counter + fallbacks_counter,
        "every retry and fallback must emit exactly one recovery event"
    );
    let reported_fallbacks = report.total("sabre fallbacks") as u64;
    assert_eq!(fallbacks_counter, reported_fallbacks);

    // Trials that completed despite faults had recoveries recorded: each
    // fault class that fired somewhere has a matching recovered event.
    let recovered_events = snap
        .events
        .iter()
        .filter(|e| e.name == "resilience.recovered")
        .count();
    assert!(recovered_events > 0, "no recovered events in the trace");

    // Energies of completed trials are physical (H2 ground state region).
    for outcome in &report.trials {
        let e = outcome.energy.expect("every trial completed");
        assert!(
            (-1.20..=-1.05).contains(&e),
            "trial {} energy {e} out of range",
            outcome.trial
        );
    }
}

#[test]
fn chaos_replay_is_deterministic_across_runs() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    let opts = ChaosOptions {
        seed: 7,
        fault_rate: 0.2,
        trials: 8,
        ..Default::default()
    };
    let a = run_chaos(&opts);
    let b = run_chaos(&opts);
    assert_eq!(a, b, "same seed must replay the identical chaos run");
}

#[test]
fn fault_plan_obs_events_match_injections() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let mut plan = FaultPlan::new(11, 1.0);
    for kind in FaultKind::ALL {
        assert!(plan.should_inject(kind));
    }
    obs::disable();
    let snap = obs::snapshot();
    assert_eq!(
        snap.counters.get("resilience.faults_injected").copied(),
        Some(FaultKind::ALL.len() as u64)
    );
    assert_eq!(
        snap.events
            .iter()
            .filter(|e| e.name == "resilience.fault")
            .count(),
        FaultKind::ALL.len()
    );
}
