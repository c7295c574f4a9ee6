//! Property tests pinning the commuting-cluster expectation path against
//! the per-term evaluator, and the qubit-wise measurement grouping's
//! internal consistency.
//!
//! The clustered evaluator rotates the state once per general-commuting
//! cluster (simultaneous diagonalization) instead of sweeping once per
//! term; it must agree with the per-term sweep to floating-point
//! round-off on arbitrary sums, and — because clusters are evaluated with
//! `par::map_slice` over a fixed task grid — be bit-identical at any
//! thread count.

use proptest::prelude::*;

use pauli_codesign::chem::Benchmark;
use pauli_codesign::numeric::Complex64;
use pauli_codesign::par;
use pauli_codesign::pauli::{
    commutation_graph, group_qubit_wise, qubit_wise_commute, ClusterStats, ClusteredSum, Pauli,
    PauliString, WeightedPauliSum,
};
use pauli_codesign::sim::Statevector;

fn deterministic_state(num_qubits: usize, seed: u64) -> Statevector {
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let amps: Vec<Complex64> = (0..1usize << num_qubits)
        .map(|_| Complex64::new(next(), next()))
        .collect();
    let norm = amps.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    Statevector::from_amplitudes(amps.into_iter().map(|z| z / norm).collect())
}

fn deterministic_hamiltonian(num_qubits: usize, terms: usize, seed: u64) -> WeightedPauliSum {
    let mut h = WeightedPauliSum::new(num_qubits);
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for k in 0..terms {
        let x = next() & ((1 << num_qubits) - 1);
        let z = next() & ((1 << num_qubits) - 1);
        h.push(
            0.2 * (k as f64 + 1.0) * if k % 2 == 0 { 1.0 } else { -1.0 },
            PauliString::from_symplectic(num_qubits, x, z),
        );
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `group_qubit_wise` produces mutually consistent groups: every
    /// member matches the group basis on each qubit (or is identity
    /// there), members pairwise qubit-wise commute, and the groups
    /// partition the term indices exactly.
    #[test]
    fn qubit_wise_groups_are_mutually_consistent(
        ham_seed in 1u64..u64::MAX,
        num_qubits in 8usize..13,
        terms in 16usize..48,
    ) {
        let h = deterministic_hamiltonian(num_qubits, terms, ham_seed);
        let groups = group_qubit_wise(&h);
        let mut seen = vec![false; h.len()];
        for g in &groups {
            for &i in &g.term_indices {
                prop_assert!(!seen[i], "term {i} appears in two groups");
                seen[i] = true;
                let (_, term) = h[i];
                for q in 0..num_qubits {
                    let op = term.op(q);
                    prop_assert!(
                        op == Pauli::I || op == g.basis.op(q),
                        "term {i} disagrees with its group basis on qubit {q}"
                    );
                }
            }
            for (pos, &i) in g.term_indices.iter().enumerate() {
                for &j in &g.term_indices[pos + 1..] {
                    prop_assert!(
                        qubit_wise_commute(&h[i].1, &h[j].1),
                        "grouped terms {i} and {j} do not qubit-wise commute"
                    );
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "grouping dropped a term");
    }

    /// The clustered expectation agrees with the per-term evaluator on
    /// random 8–12 qubit sums, and is bit-identical at 1/2/4 threads.
    #[test]
    fn clustered_expectation_agrees_with_per_term(
        state_seed in 1u64..u64::MAX,
        ham_seed in 1u64..u64::MAX,
        num_qubits in 8usize..13,
    ) {
        let sv = deterministic_state(num_qubits, state_seed);
        let h = deterministic_hamiltonian(num_qubits, 32, ham_seed);
        let per_term = sv.expectation_per_term(&h);
        // Scale the agreement tolerance by the total weight: term
        // coefficients here grow to ~6.4 and the evaluators sum ~32 of
        // them through different orderings.
        let scale: f64 = (0..h.len()).map(|i| h[i].0.abs()).sum();
        let mut reference: Option<f64> = None;
        for threads in [1usize, 2, 4] {
            let clustered = par::with_threads(threads, || sv.expectation_clustered(&h));
            prop_assert!(
                (clustered - per_term).abs() <= 1e-12 * scale.max(1.0),
                "clustered {clustered} vs per-term {per_term} @ {threads} threads"
            );
            match reference {
                None => reference = Some(clustered),
                Some(r) => prop_assert!(
                    r.to_bits() == clustered.to_bits(),
                    "clustered value differs across thread counts: {r} vs {clustered}"
                ),
            }
        }
    }
}

/// The clustered evaluator agrees with the per-term sweep on the real
/// molecular Hamiltonians the pipeline runs (H2 and LiH under the
/// Jordan–Wigner mapping), and the partition is a genuine compression:
/// fewer clusters than terms.
#[test]
fn clustered_agrees_on_molecular_hamiltonians() {
    let systems = [
        ("H2", Benchmark::H2.build(0.7414).expect("H2 chemistry")),
        ("LiH", Benchmark::LiH.build(1.6).expect("LiH chemistry")),
    ];
    for (label, system) in &systems {
        let h = system.qubit_hamiltonian();
        let sv = deterministic_state(h.num_qubits(), 0xC0FF_EE00_DEAD_BEEF);
        let per_term = sv.expectation_per_term(h);
        let clustered = sv.expectation_clustered(h);
        assert!(
            (per_term - clustered).abs() < 1e-10,
            "{label}: clustered {clustered} vs per-term {per_term}"
        );
        let cs = ClusteredSum::build(h);
        let with_prebuilt = sv.expectation_with(&cs);
        assert_eq!(
            clustered.to_bits(),
            with_prebuilt.to_bits(),
            "{label}: prebuilt ClusteredSum diverges from expectation_clustered"
        );
        let stats = cs.stats();
        assert_eq!(stats.terms, h.len(), "{label}: partition dropped terms");
        assert!(
            stats.clusters < h.len(),
            "{label}: {} clusters over {} terms is no compression",
            stats.clusters,
            h.len()
        );
    }
}

/// The packed commutation graph equals the graph of pairwise
/// `commutes_with` calls bit for bit on every Table I Hamiltonian at
/// equilibrium, so the greedy partition grown on it cannot change.
#[test]
fn packed_commutation_graph_matches_commutes_with_on_table_one() {
    for molecule in Benchmark::ALL {
        let system = molecule
            .build(molecule.equilibrium_bond_length())
            .expect("chemistry");
        let h = system.qubit_hamiltonian();
        let rows = commutation_graph(h);
        assert_eq!(rows.len(), h.len(), "{molecule}");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), h.len().div_ceil(64), "{molecule}");
            for j in 0..row.len() * 64 {
                let bit = (row[j / 64] >> (j % 64)) & 1 == 1;
                let want = j < h.len() && h[i].1.commutes_with(&h[j].1);
                assert_eq!(bit, want, "{molecule}: terms {i} and {j}");
            }
        }
    }
}

/// The partition of the Hamiltonians the pipeline benchmark and the traced
/// kernels run, pinned whole: the greedy clusters, their fused-path choice
/// and their Clifford frames.
#[test]
fn cluster_stats_of_h2o_beh2_bh3_are_pinned() {
    let pins = [
        (
            Benchmark::H2O,
            ClusterStats {
                clusters: 24,
                terms: 551,
                largest: 79,
                singletons: 0,
                fused: 24,
                clifford_ops: 835,
                clifford_depth: 19,
            },
        ),
        (
            Benchmark::BeH2,
            ClusterStats {
                clusters: 10,
                terms: 327,
                largest: 79,
                singletons: 0,
                fused: 10,
                clifford_ops: 342,
                clifford_depth: 19,
            },
        ),
        (
            Benchmark::BH3,
            ClusterStats {
                clusters: 67,
                terms: 1534,
                largest: 106,
                singletons: 1,
                fused: 66,
                clifford_ops: 2934,
                clifford_depth: 24,
            },
        ),
    ];
    for (molecule, want) in pins {
        let system = molecule
            .build(molecule.equilibrium_bond_length())
            .expect("chemistry");
        let got = ClusteredSum::build(system.qubit_hamiltonian()).stats();
        assert_eq!(got, want, "{molecule}");
    }
}
