//! Supervisor determinism, property-tested: for a fixed batch seed, the
//! per-job records — terminal states, energies (bit-for-bit), retry
//! counts — are identical at 1, 2, and 4 workers, even while panics,
//! hangs, and transient faults are being injected at the worker boundary
//! and numerical faults inside the pipeline stages.

use pauli_codesign::chem::Benchmark;
use pauli_codesign::supervisor::{run_batch, JobSpec, Lane, SupervisorConfig};
use proptest::prelude::*;

fn jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            id: format!("h2-{i}"),
            benchmark: Benchmark::H2,
            bond: Some(0.62 + 0.06 * i as f64),
            ratio: 1.0,
        })
        .collect()
}

fn chaos_config(seed: u64, fault_rate: f64, workers: usize) -> SupervisorConfig {
    SupervisorConfig {
        workers,
        batch_seed: seed,
        max_retries: 3,
        slice_ticks: 2,
        max_slices: 64,
        pipeline_fault_rate: fault_rate * 0.5,
        injection_rate: fault_rate,
        ..SupervisorConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn records_and_retry_counts_are_worker_count_invariant(
        seed in 0u64..1_000_000,
        fault_rate in 0.0f64..0.5,
    ) {
        let jobs = jobs(4);
        let base = run_batch(&jobs, &chaos_config(seed, fault_rate, 1))
            .expect("supervised batch runs");
        prop_assert!(base.records.iter().all(|r| r.state.is_terminal()));
        // Every job lands in exactly one terminal state.
        prop_assert_eq!(base.done() + base.quarantined() + base.shed(), jobs.len());
        for workers in [2usize, 4] {
            let other = run_batch(&jobs, &chaos_config(seed, fault_rate, workers))
                .expect("supervised batch runs");
            // Full bitwise record equality: states, energy bits, retry
            // counts.
            prop_assert_eq!(&base.records, &other.records);
        }
    }
}

#[test]
fn faulty_batch_still_terminates_every_job() {
    let jobs = jobs(6);
    let report = run_batch(&jobs, &chaos_config(9, 0.4, 4)).expect("batch runs");
    assert_eq!(report.records.len(), 6);
    assert!(report.records.iter().all(|r| r.state.is_terminal()));
    // At a 40% injection rate something must have gone wrong somewhere —
    // the point is that it was *contained*, not that it didn't happen.
    assert!(
        report.records.iter().any(|r| r.retries > 0) || report.quarantined() > 0,
        "expected at least one retry or quarantine at fault rate 0.4"
    );
}

/// Priority lanes reorder *scheduling*, never *results*: a batch mixing
/// fast-lane (H2) and slow-lane (NaH) jobs produces bit-identical records
/// at every worker count, even though the fast lane drains first and the
/// interleaving of lanes across workers differs run to run.
#[test]
fn mixed_lane_batch_is_worker_count_invariant() {
    let jobs = vec![
        JobSpec {
            id: "nah-long".to_string(),
            benchmark: Benchmark::NaH,
            bond: None,
            ratio: 0.2,
        },
        JobSpec {
            id: "h2-short-a".to_string(),
            benchmark: Benchmark::H2,
            bond: Some(0.70),
            ratio: 1.0,
        },
        JobSpec {
            id: "h2-short-b".to_string(),
            benchmark: Benchmark::H2,
            bond: Some(0.74),
            ratio: 1.0,
        },
    ];
    assert_eq!(jobs[0].lane(), Lane::Slow, "NaH is a long VQE run");
    assert_eq!(jobs[1].lane(), Lane::Fast, "H2 is a short job");
    let base = run_batch(&jobs, &chaos_config(13, 0.0, 1)).expect("batch runs");
    assert!(base.records.iter().all(|r| r.state.is_terminal()));
    for workers in [2usize, 3] {
        let other = run_batch(&jobs, &chaos_config(13, 0.0, workers)).expect("batch runs");
        assert_eq!(
            base.records, other.records,
            "lane scheduling must be invisible at {workers} workers"
        );
    }
}

#[test]
fn clean_batch_energies_match_between_reruns() {
    let jobs = jobs(3);
    let a = run_batch(&jobs, &chaos_config(7, 0.0, 2)).expect("batch runs");
    let b = run_batch(&jobs, &chaos_config(7, 0.0, 3)).expect("batch runs");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        let (ea, eb) = (ra.energy().expect("done"), rb.energy().expect("done"));
        assert_eq!(ea.to_bits(), eb.to_bits(), "job {} energy bits", ra.index);
    }
}
