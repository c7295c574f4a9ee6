//! No panic anywhere on the potential-energy surface.
//!
//! All nine Table I molecules at 0.3–3.5 Å in 0.1 Å steps (297 points) go
//! through the SCF retry ladder at one thread, the path the pipeline
//! stages build through. Each point must converge or fail with a typed
//! `scf`-stage error, and only the five points known to defeat the ladder
//! may fail. Several of these points converge or fail on energy
//! differences of ~1e-13 Ha, so the grid also guards the integral engine
//! against changes that would flip an SCF outcome.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pauli_codesign::chem::scf::ScfOptions;
use pauli_codesign::chem::Benchmark;
use pauli_codesign::par;
use pauli_codesign::resilience::fault::FaultPlan;
use pauli_codesign::resilience::recover::build_system_with_recovery;

/// The points every rung of the ladder fails on (`Unrecovered`, exit 11).
const KNOWN_UNRECOVERED: [(Benchmark, f64); 5] = [
    (Benchmark::H2O, 1.9),
    (Benchmark::H2O, 2.0),
    (Benchmark::NH3, 2.1),
    (Benchmark::NH3, 2.2),
    (Benchmark::NH3, 2.3),
];

#[test]
fn table_one_grid_converges_or_fails_typed() {
    let bonds: Vec<f64> = (3..=35).map(|k| k as f64 / 10.0).collect();
    let (mut converged, mut failed, mut panicked) = (0usize, Vec::new(), Vec::new());
    par::with_threads(1, || {
        for molecule in Benchmark::ALL {
            for &bond in &bonds {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    build_system_with_recovery(
                        molecule,
                        bond,
                        ScfOptions::default(),
                        &mut FaultPlan::none(),
                    )
                }));
                match outcome {
                    Ok(Ok(_)) => converged += 1,
                    Ok(Err(e)) => failed.push((molecule, bond, e)),
                    Err(_) => panicked.push((molecule, bond)),
                }
            }
        }
    });
    assert!(panicked.is_empty(), "panicked at {panicked:?}");
    for (molecule, bond, e) in &failed {
        assert_eq!(e.stage(), "scf", "{molecule} @ {bond} Å: {e}");
        assert!(
            KNOWN_UNRECOVERED.contains(&(*molecule, *bond)),
            "{molecule} @ {bond} Å failed outside the known points: {e}"
        );
    }
    assert_eq!(converged + failed.len(), 9 * bonds.len());
    assert!(
        converged >= 292,
        "{converged} of {} points converged",
        9 * bonds.len()
    );
}
