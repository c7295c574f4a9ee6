//! The AO integral engine against its per-function oracles.
//!
//! `compute_ao_integrals` builds `S`, `h = T + V` and the ERI tensor from
//! shell-pair data, one Boys evaluation and one Hermite `R` table per
//! primitive quartet and angular momentum. The per-function
//! `overlap`/`kinetic`/`nuclear`/`eri`, which recurse per primitive and
//! call the Boys function per function quartet, are the slow paths it must
//! reproduce bit for bit (and so within any tolerance) on all nine Table I
//! molecules at equilibrium, 0.5 Å and 3.0 Å, in permuted bases, and at
//! 1, 2 and 4 threads.

use pauli_codesign::chem::basis::{build_basis, BasisFunction};
use pauli_codesign::chem::integrals::{
    compute_ao_integrals, eri, kinetic, nuclear, overlap, AoIntegrals, EriTensor,
};
use pauli_codesign::chem::{Benchmark, Molecule};
use pauli_codesign::numeric::RealMatrix;
use pauli_codesign::par;

/// The slow path: every matrix element and canonical quartet from the
/// per-function integrals.
fn oracle(molecule: &Molecule, basis: &[BasisFunction]) -> AoIntegrals {
    let n = basis.len();
    let t = RealMatrix::from_fn(n, n, |i, j| kinetic(&basis[i], &basis[j]));
    let v = RealMatrix::from_fn(n, n, |i, j| nuclear(&basis[i], &basis[j], molecule));
    AoIntegrals {
        overlap: RealMatrix::from_fn(n, n, |i, j| overlap(&basis[i], &basis[j])),
        core_hamiltonian: &t + &v,
        eri: EriTensor::from_fn_symmetric(n, |p, q, r, s| {
            eri(&basis[p], &basis[q], &basis[r], &basis[s])
        }),
        nuclear_repulsion: molecule.nuclear_repulsion(),
    }
}

fn max_matrix_gap(a: &RealMatrix, b: &RealMatrix) -> f64 {
    let n = a.rows();
    let mut gap = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            gap = gap.max((a[(i, j)] - b[(i, j)]).abs());
        }
    }
    gap
}

fn max_eri_gap(a: &EriTensor, b: &EriTensor) -> f64 {
    let n = a.dim();
    let mut gap = 0.0f64;
    for p in 0..n {
        for q in 0..n {
            for r in 0..n {
                for s in 0..n {
                    gap = gap.max((a.get(p, q, r, s) - b.get(p, q, r, s)).abs());
                }
            }
        }
    }
    gap
}

/// Every number of an integral set, as bits.
fn bits(ints: &AoIntegrals) -> Vec<u64> {
    let n = ints.eri.dim();
    let mut out = Vec::new();
    for m in [&ints.overlap, &ints.core_hamiltonian] {
        for i in 0..n {
            for j in 0..n {
                out.push(m[(i, j)].to_bits());
            }
        }
    }
    for p in 0..n {
        for q in 0..n {
            for r in 0..n {
                for s in 0..n {
                    out.push(ints.eri.get(p, q, r, s).to_bits());
                }
            }
        }
    }
    out
}

fn bonds(molecule: Benchmark) -> [f64; 3] {
    [molecule.equilibrium_bond_length(), 0.5, 3.0]
}

/// Asserts the engine equals the oracle bit for bit, reporting the largest
/// gaps when it does not.
fn assert_bit_identical(m: &Molecule, basis: &[BasisFunction], what: &str) {
    let fast = par::with_threads(1, || compute_ao_integrals(m, basis));
    let slow = par::with_threads(1, || oracle(m, basis));
    assert!(
        bits(&fast) == bits(&slow),
        "{what}: not bit-identical; max |Δ| S {:e}, h {:e}, ERI {:e}",
        max_matrix_gap(&fast.overlap, &slow.overlap),
        max_matrix_gap(&fast.core_hamiltonian, &slow.core_hamiltonian),
        max_eri_gap(&fast.eri, &slow.eri),
    );
    assert_eq!(fast.nuclear_repulsion, slow.nuclear_repulsion);
}

#[test]
fn engine_is_bit_identical_to_the_per_function_oracle_on_table_one() {
    for molecule in Benchmark::ALL {
        for bond in bonds(molecule) {
            let m = molecule.molecule(bond);
            assert_bit_identical(&m, &build_basis(&m), &format!("{molecule} @ {bond} Å"));
        }
    }
}

#[test]
fn engine_is_bit_identical_in_permuted_bases() {
    // Reordered bases split and reorder the shells, which moves canonical
    // quartets between blocks and orientations.
    for molecule in [Benchmark::H2O, Benchmark::NH3, Benchmark::NaH] {
        let m = molecule.molecule(molecule.equilibrium_bond_length());
        let basis = build_basis(&m);
        let n = basis.len();
        let reversed: Vec<BasisFunction> = basis.iter().rev().cloned().collect();
        // A stride coprime to n visits every function once, out of order.
        let stride = (3..n).find(|k| gcd(*k, n) == 1).unwrap_or(1);
        let strided: Vec<BasisFunction> = (0..n).map(|i| basis[(i * stride) % n].clone()).collect();
        assert_bit_identical(&m, &reversed, &format!("{molecule}, reversed basis"));
        assert_bit_identical(&m, &strided, &format!("{molecule}, stride-{stride} basis"));
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[test]
fn engine_is_bit_identical_across_thread_counts() {
    for molecule in Benchmark::ALL {
        for bond in bonds(molecule) {
            let m = molecule.molecule(bond);
            let basis = build_basis(&m);
            let one = par::with_threads(1, || compute_ao_integrals(&m, &basis));
            for threads in [2, 4] {
                let many = par::with_threads(threads, || compute_ao_integrals(&m, &basis));
                assert!(
                    bits(&one) == bits(&many),
                    "{molecule} @ {bond} Å: {threads} threads differ from 1"
                );
            }
        }
    }
}
