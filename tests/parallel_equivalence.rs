//! Property tests pinning the `par` layer's core guarantee: every parallel
//! hot path produces **bit-identical** results at 1, 2, and 4 threads.
//!
//! Work decomposition in `par` is fixed (chunk grids and task orders never
//! depend on the thread count) and reductions fold in ascending order, so
//! floating-point results must not merely be close across thread counts —
//! they must match exactly, bit for bit. Sizes here are chosen to actually
//! cross `par::SERIAL_CUTOFF` so the threaded paths really execute.

use proptest::prelude::*;

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::arch::{simulate_yield, CollisionModel, Topology};
use pauli_codesign::chem::integrals::EriTensor;
use pauli_codesign::circuit::Gate;
use pauli_codesign::numeric::Complex64;
use pauli_codesign::par;
use pauli_codesign::pauli::{PauliString, WeightedPauliSum};
use pauli_codesign::sim::{PauliRotation, Statevector};
use pauli_codesign::vqe;

/// Big enough that 2^n amplitudes span multiple `par::DEFAULT_CHUNK` chunks,
/// forcing the statevector kernels onto the threaded path.
const BIG_QUBITS: usize = 14;

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

/// [`deterministic_state`] with every amplitude whose index hashes below
/// `zeros` set to `±0.0`, so a flip mask's pairs mix whole-zero, half-zero
/// and full pairs.
fn sparse_state(num_qubits: usize, seed: u64, zeros: f64) -> Statevector {
    let amps = deterministic_state(num_qubits, seed)
        .amplitudes()
        .iter()
        .enumerate()
        .map(|(b, &a)| {
            let hash = (b as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if (hash >> 11) as f64 / (1u64 << 53) as f64 >= zeros {
                a
            } else if hash & 1 == 0 {
                Complex64::ZERO
            } else {
                Complex64::new(-0.0, -0.0)
            }
        })
        .collect();
    Statevector::from_amplitudes(amps)
}

fn assert_bits_equal(a: &Statevector, b: &Statevector, what: &str) {
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: amplitude {i} differs across thread counts: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Single-qubit gate kernels are bit-identical at 1/2/4 threads.
    #[test]
    fn statevector_gates_bit_identical_across_threads(
        seed in 1u64..u64::MAX,
        qubit in 0usize..BIG_QUBITS,
        theta in -3.0f64..3.0,
    ) {
        let base = deterministic_state(BIG_QUBITS, seed);
        let gates = [Gate::H(qubit), Gate::Rx(qubit, theta), Gate::Ry(qubit, theta)];
        for gate in &gates {
            let mut reference: Option<Statevector> = None;
            for threads in [1usize, 2, 4] {
                let mut sv = base.clone();
                par::with_threads(threads, || sv.apply_gate(gate));
                match &reference {
                    None => reference = Some(sv),
                    Some(r) => assert_bits_equal(r, &sv, &format!("{gate:?} @ {threads} threads")),
                }
            }
        }
    }

    /// Pauli-evolution kernels (diagonal and off-diagonal) are
    /// bit-identical at 1/2/4 threads.
    #[test]
    fn pauli_evolution_bit_identical_across_threads(
        seed in 1u64..u64::MAX,
        mask_seed in 1u64..u64::MAX,
        theta in -3.0f64..3.0,
    ) {
        let base = deterministic_state(BIG_QUBITS, seed);
        let full = (1u64 << BIG_QUBITS) - 1;
        let strings = [
            // Diagonal (Z-only) string.
            PauliString::from_symplectic(BIG_QUBITS, 0, mask_seed & full),
            // Off-diagonal with a high X bit (large pair stride).
            PauliString::from_symplectic(
                BIG_QUBITS,
                (mask_seed & full) | (1 << (BIG_QUBITS - 1)),
                mask_seed.rotate_left(17) & full,
            ),
        ];
        for p in &strings {
            let mut reference: Option<Statevector> = None;
            for threads in [1usize, 2, 4] {
                let mut sv = base.clone();
                par::with_threads(threads, || sv.apply_pauli_evolution(p, theta));
                match &reference {
                    None => reference = Some(sv),
                    Some(r) => assert_bits_equal(r, &sv, &format!("evolution {p} @ {threads} threads")),
                }
            }
        }
    }

    /// Both expectation evaluators, the fused one (one pair sweep per flip
    /// mask, chunk-parallel within each sweep) and its per-term oracle (on
    /// both its few-terms chunk-parallel and many-terms term-parallel
    /// strategies), are bit-identical at 1/2/4 threads.
    #[test]
    fn expectation_bit_identical_across_threads(
        state_seed in 1u64..u64::MAX,
        ham_seed in 1u64..u64::MAX,
    ) {
        let sv = deterministic_state(BIG_QUBITS, state_seed);
        for terms in [3usize, 20] {
            let h = deterministic_hamiltonian(BIG_QUBITS, terms, ham_seed);
            let evaluators: [fn(&Statevector, &WeightedPauliSum) -> f64; 2] =
                [Statevector::expectation, Statevector::expectation_per_term];
            for evaluate in evaluators {
                let e1 = par::with_threads(1, || evaluate(&sv, &h));
                let e2 = par::with_threads(2, || evaluate(&sv, &h));
                let e4 = par::with_threads(4, || evaluate(&sv, &h));
                prop_assert_eq!(e1.to_bits(), e2.to_bits());
                prop_assert_eq!(e1.to_bits(), e4.to_bits());
            }
        }
    }

    /// The grouped `H|ψ⟩` (one pair sweep per flip mask, each chunk
    /// writing only its own pairs) is bit-identical at 1/2/4 threads, with
    /// masks whose blocks span one chunk or several.
    #[test]
    fn grouped_apply_bit_identical_across_threads(
        state_seed in 1u64..u64::MAX,
        ham_seed in 1u64..u64::MAX,
    ) {
        let sv = deterministic_state(BIG_QUBITS, state_seed);
        let h = deterministic_hamiltonian(BIG_QUBITS, 40, ham_seed);
        let run = |threads: usize| {
            let mut out = vec![Complex64::ZERO; 1 << BIG_QUBITS];
            par::with_threads(threads, || h.apply(sv.amplitudes(), &mut out));
            Statevector::from_amplitudes(out)
        };
        let reference = run(1);
        for threads in [2usize, 4] {
            assert_bits_equal(&reference, &run(threads), &format!("grouped apply @ {threads} threads"));
        }
    }

    /// The fused preparation and the fused adjoint gradient are
    /// bit-identical at 1/2/4 threads: each chunk rotates only its own
    /// pairs, and the gradient's per-chunk bracket sums fold in chunk
    /// order over a grid fixed by the flip mask, as the expectation sweeps' do.
    #[test]
    fn fused_prepare_and_gradient_bit_identical_across_threads(
        theta_seed in 1u64..u64::MAX,
        ham_seed in 1u64..u64::MAX,
    ) {
        let ir = UccsdAnsatz::new(BIG_QUBITS / 2, 4).into_ir();
        let mut s = theta_seed | 1;
        let theta: Vec<f64> = (0..ir.num_parameters())
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let h = deterministic_hamiltonian(BIG_QUBITS, 20, ham_seed);
        let prepared = |threads: usize| par::with_threads(threads, || vqe::prepare_state(&ir, &theta));
        let gradient = |threads: usize| {
            par::with_threads(threads, || vqe::energy_and_gradient(&h, &ir, &theta))
        };
        let (ref_state, (ref_e, ref_grad)) = (prepared(1), gradient(1));
        for threads in [2usize, 4] {
            assert_bits_equal(&ref_state, &prepared(threads), &format!("prepare_state @ {threads} threads"));
            let (e, grad) = gradient(threads);
            prop_assert_eq!(ref_e.to_bits(), e.to_bits());
            for (a, b) in ref_grad.iter().zip(&grad) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// On sparse states above `par::SERIAL_CUTOFF`, the sweeps that skip
    /// zero pairs — fused rotations (diagonal and with a block wider than a
    /// chunk), the fused expectation and the grouped `H|ψ⟩` — are
    /// bit-identical at 1/2/4 threads, as is the fused gradient of a
    /// two-electron UCCSD IR, whose states are mostly zero.
    #[test]
    fn sparse_sweeps_bit_identical_across_threads(
        state_seed in 1u64..u64::MAX,
        ham_seed in 1u64..u64::MAX,
        zeros in 0.0f64..1.0,
        theta in -3.0f64..3.0,
    ) {
        prop_assert!(1usize << BIG_QUBITS > par::SERIAL_CUTOFF);
        let sv = sparse_state(BIG_QUBITS, state_seed, zeros);
        let h = deterministic_hamiltonian(BIG_QUBITS, 40, ham_seed);
        let full = (1u64 << BIG_QUBITS) - 1;
        let runs: Vec<Vec<PauliRotation>> = [0, (ham_seed & full) | (1 << (BIG_QUBITS - 1)), 0b101]
            .into_iter()
            .map(|x| {
                (0..5u32)
                    .map(|k| {
                        let z = ham_seed.rotate_left(7 * k) & full;
                        let p = PauliString::from_symplectic(BIG_QUBITS, x, z);
                        PauliRotation::new(&p, theta + f64::from(k))
                    })
                    .collect()
            })
            .collect();
        let ir = UccsdAnsatz::new(BIG_QUBITS / 2, 2).into_ir();
        let params: Vec<f64> = (0..ir.num_parameters()).map(|k| theta / (k as f64 + 1.0)).collect();
        let sweep = |threads: usize| {
            par::with_threads(threads, || {
                let mut rotated = sv.clone();
                for run in &runs {
                    rotated.apply_pauli_rotations(run);
                }
                let mut out = vec![Complex64::ZERO; 1 << BIG_QUBITS];
                h.apply(sv.amplitudes(), &mut out);
                let energy = sv.expectation(&h);
                let (e, grad) = vqe::energy_and_gradient(&h, &ir, &params);
                (rotated, Statevector::from_amplitudes(out), energy, e, grad)
            })
        };
        let (ref_rotated, ref_out, ref_energy, ref_e, ref_grad) = sweep(1);
        for threads in [2usize, 4] {
            let (rotated, out, energy, e, grad) = sweep(threads);
            assert_bits_equal(&ref_rotated, &rotated, &format!("sparse rotations @ {threads} threads"));
            assert_bits_equal(&ref_out, &out, &format!("sparse grouped apply @ {threads} threads"));
            prop_assert_eq!(ref_energy.to_bits(), energy.to_bits());
            prop_assert_eq!(ref_e.to_bits(), e.to_bits());
            for (a, b) in ref_grad.iter().zip(&grad) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The symmetric ERI-tensor build is bit-identical at 1/2/4 threads.
    #[test]
    fn eri_tensor_bit_identical_across_threads(scale in 0.1f64..10.0) {
        let f = |p: usize, q: usize, r: usize, s: usize| {
            scale / ((p + 1) as f64 * (q + 1) as f64 + (r as f64 - s as f64).powi(2) + 0.5)
        };
        let t1 = par::with_threads(1, || EriTensor::from_fn_symmetric(6, f));
        let t2 = par::with_threads(2, || EriTensor::from_fn_symmetric(6, f));
        let t4 = par::with_threads(4, || EriTensor::from_fn_symmetric(6, f));
        prop_assert_eq!(&t1, &t2);
        prop_assert_eq!(&t1, &t4);
    }

    /// The yield Monte Carlo is exactly reproducible at 1/2/4 threads
    /// (fixed sample-chunk seeding + integer reduction).
    #[test]
    fn yield_sim_identical_across_threads(
        seed in 0u64..u64::MAX,
        sigma in 0.0f64..0.3,
    ) {
        let t = Topology::xtree(9);
        let m = CollisionModel::default();
        let e1 = par::with_threads(1, || simulate_yield(&t, &m, sigma, 300, seed));
        let e2 = par::with_threads(2, || simulate_yield(&t, &m, sigma, 300, seed));
        let e4 = par::with_threads(4, || simulate_yield(&t, &m, sigma, 300, seed));
        prop_assert_eq!(e1, e2);
        prop_assert_eq!(e1, e4);
    }
}

/// CNOT and SWAP touch only their quarter subspace: a non-property
/// regression pin that the rewritten enumeration agrees with evolution by
/// the equivalent Pauli construction on a random state.
#[test]
fn cnot_swap_stable_across_threads() {
    // These kernels are serial, but they must commute with the parallel
    // kernels around them: interleave gates and evolutions and compare the
    // final state across thread counts.
    let base = deterministic_state(BIG_QUBITS, 0xDEAD_BEEF);
    let p: PauliString = match "XYZXYZXYZXYZXY".parse() {
        Ok(p) => p,
        Err(e) => panic!("parse: {e:?}"),
    };
    let mut reference: Option<Statevector> = None;
    for threads in [1usize, 2, 4] {
        let mut sv = base.clone();
        par::with_threads(threads, || {
            sv.apply_gate(&Gate::H(3));
            sv.apply_gate(&Gate::Cnot {
                control: 3,
                target: 11,
            });
            sv.apply_pauli_evolution(&p, 0.3);
            sv.apply_gate(&Gate::Swap(0, BIG_QUBITS - 1));
            sv.apply_gate(&Gate::Cnot {
                control: 12,
                target: 2,
            });
        });
        match &reference {
            None => reference = Some(sv),
            Some(r) => {
                assert_bits_equal(r, &sv, &format!("interleaved program @ {threads} threads"))
            }
        }
    }
}
