//! Property-based tests for the fault-injection plan (proptest): same
//! seed ⇒ identical fault sequence, and structural invariants of the
//! recorded injections.

use proptest::prelude::*;

use resilience::{FaultKind, FaultPlan};

/// Strategy: an arbitrary query sequence over every injection site.
fn site_sequence() -> impl Strategy<Value = Vec<FaultKind>> {
    prop::collection::vec(
        prop_oneof![
            Just(FaultKind::ScfConvergence),
            Just(FaultKind::ScfEnergy),
            Just(FaultKind::Geometry),
            Just(FaultKind::CouplingGraph),
            Just(FaultKind::VqeObjective),
            Just(FaultKind::OptimizerStall),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two plans with the same seed and rate answer every query in the
    /// same query sequence identically and record identical injections —
    /// the determinism contract chaos replay depends on.
    #[test]
    fn same_seed_gives_identical_fault_sequence(
        seed in 0u64..1_000_000,
        rate in 0.0f64..1.0,
        queries in site_sequence(),
    ) {
        let mut a = FaultPlan::new(seed, rate);
        let mut b = FaultPlan::new(seed, rate);
        for &kind in &queries {
            prop_assert_eq!(a.should_inject(kind), b.should_inject(kind));
        }
        prop_assert_eq!(a.injected(), b.injected());
    }

    /// A plan's answers depend only on (seed, site, per-site visit), not
    /// on the interleaving of queries to other sites.
    #[test]
    fn interleaving_does_not_change_per_site_answers(
        seed in 0u64..1_000_000,
        rate in 0.0f64..1.0,
        queries in site_sequence(),
    ) {
        // Interleaved pass.
        let mut interleaved = FaultPlan::new(seed, rate);
        let mut answers: Vec<(FaultKind, bool)> = Vec::new();
        for &kind in &queries {
            answers.push((kind, interleaved.should_inject(kind)));
        }
        // Site-by-site pass over the same per-site visit counts.
        let mut grouped = FaultPlan::new(seed, rate);
        for site in FaultKind::ALL {
            let expected: Vec<bool> = answers
                .iter()
                .filter(|(k, _)| *k == site)
                .map(|&(_, hit)| hit)
                .collect();
            for &want in &expected {
                prop_assert_eq!(grouped.should_inject(site), want);
            }
        }
    }

    /// The injection record is consistent: per-site visit indices are
    /// strictly increasing, and every record corresponds to a `true`
    /// answer in order.
    #[test]
    fn injected_record_is_ordered_and_consistent(
        seed in 0u64..1_000_000,
        queries in site_sequence(),
    ) {
        let mut plan = FaultPlan::new(seed, 0.5);
        let mut hits = Vec::new();
        let mut visits = [0u64; FaultKind::ALL.len()];
        for &kind in &queries {
            let visit = visits[FaultKind::ALL.iter().position(|&k| k == kind).expect("site")];
            visits[FaultKind::ALL.iter().position(|&k| k == kind).expect("site")] += 1;
            if plan.should_inject(kind) {
                hits.push((kind, visit));
            }
        }
        let recorded: Vec<(FaultKind, u64)> =
            plan.injected().iter().map(|f| (f.kind, f.visit)).collect();
        prop_assert_eq!(recorded, hits);
    }

    /// Rate 0 and rate 1 are exact bounds regardless of seed.
    #[test]
    fn rate_bounds_are_exact(seed in 0u64..1_000_000, queries in site_sequence()) {
        let mut never = FaultPlan::new(seed, 0.0);
        let mut always = FaultPlan::new(seed, 1.0);
        for &kind in &queries {
            prop_assert!(!never.should_inject(kind));
            prop_assert!(always.should_inject(kind));
        }
        prop_assert!(never.injected().is_empty());
        prop_assert_eq!(always.injected().len(), queries.len());
    }
}
