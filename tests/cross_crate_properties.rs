//! Property-based tests on cross-crate invariants (proptest).

use proptest::prelude::*;

use pauli_codesign::ansatz::{IrEntry, PauliIr};
use pauli_codesign::arch::{simulate_yield, CollisionModel, Topology};
use pauli_codesign::circuit::{Circuit, Gate};
use pauli_codesign::compiler::layout::hierarchical_initial_layout;
use pauli_codesign::compiler::layout::Layout;
use pauli_codesign::compiler::mtr::{merge_to_root, MtrOptions};
use pauli_codesign::compiler::sabre::{sabre_route, SabreOptions};
use pauli_codesign::numeric::Complex64;
use pauli_codesign::pauli::{Pauli, PauliString, WeightedPauliSum};
use pauli_codesign::sim::Statevector;

fn arb_pauli() -> impl Strategy<Value = Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z)
    ]
}

fn arb_string(n: usize) -> impl Strategy<Value = PauliString> {
    prop::collection::vec(arb_pauli(), n).prop_map(move |ops| {
        let mut s = PauliString::identity(n);
        for (q, p) in ops.into_iter().enumerate() {
            s.set_op(q, p);
        }
        s
    })
}

fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let q2 = 0..n;
    prop_oneof![
        (0..n).prop_map(Gate::H),
        (0..n).prop_map(Gate::X),
        (0..n).prop_map(Gate::S),
        ((0..n), -3.0f64..3.0).prop_map(|(q, t)| Gate::Rz(q, t)),
        ((0..n), -3.0f64..3.0).prop_map(|(q, t)| Gate::Ry(q, t)),
        (q, q2).prop_filter_map("distinct", |(a, b)| {
            (a != b).then_some(Gate::Cnot {
                control: a,
                target: b,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pauli string multiplication is associative including phases.
    #[test]
    fn pauli_product_associative(a in arb_string(5), b in arb_string(5), c in arb_string(5)) {
        let (p_ab, ab) = a.mul(&b);
        let (p_ab_c, ab_c) = ab.mul(&c);
        let (p_bc, bc) = b.mul(&c);
        let (p_a_bc, a_bc) = a.mul(&bc);
        prop_assert_eq!(ab_c, a_bc);
        prop_assert_eq!(p_ab.mul(p_ab_c), p_bc.mul(p_a_bc));
    }

    /// Commutation is symmetric and consistent with products.
    #[test]
    fn commutation_consistency(a in arb_string(6), b in arb_string(6)) {
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
        let (pab, sab) = a.mul(&b);
        let (pba, sba) = b.mul(&a);
        prop_assert_eq!(sab, sba);
        prop_assert_eq!(a.commutes_with(&b), pab == pba);
    }

    /// Circuits preserve statevector norm (unitarity).
    #[test]
    fn circuits_are_norm_preserving(gates in prop::collection::vec(arb_gate(4), 0..40)) {
        let mut c = Circuit::new(4);
        for g in gates {
            c.push(g);
        }
        let mut sv = Statevector::basis_state(4, 0b0110);
        sv.apply_circuit(&c);
        prop_assert!((sv.norm() - 1.0).abs() < 1e-10);
    }

    /// The inverse circuit really inverts.
    #[test]
    fn inverse_circuit_round_trips(gates in prop::collection::vec(arb_gate(4), 0..25)) {
        let mut c = Circuit::new(4);
        for g in gates {
            c.push(g);
        }
        let reference = Statevector::basis_state(4, 0b1010);
        let mut sv = reference.clone();
        sv.apply_circuit(&c);
        sv.apply_circuit(&c.inverse());
        prop_assert!(sv.fidelity(&reference) > 1.0 - 1e-10);
    }

    /// Direct Pauli evolution composes to identity with its inverse and
    /// preserves norm for any string/angle.
    #[test]
    fn pauli_evolution_unitary(s in arb_string(5), theta in -6.0f64..6.0) {
        let mut sv = Statevector::basis_state(5, 0b10011);
        sv.apply_gate(&Gate::H(0));
        sv.apply_gate(&Gate::Ry(3, 0.7));
        let reference = sv.clone();
        sv.apply_pauli_evolution(&s, theta);
        prop_assert!((sv.norm() - 1.0).abs() < 1e-10);
        sv.apply_pauli_evolution(&s, -theta);
        prop_assert!(sv.fidelity(&reference) > 1.0 - 1e-10);
    }

    /// Expectation values of Hermitian sums are real and bounded by the
    /// one-norm.
    #[test]
    fn expectation_bounded_by_one_norm(
        strings in prop::collection::vec(arb_string(4), 1..8),
        weights in prop::collection::vec(-2.0f64..2.0, 8),
        seed_gates in prop::collection::vec(arb_gate(4), 0..20),
    ) {
        let mut h = WeightedPauliSum::new(4);
        for (s, w) in strings.iter().zip(&weights) {
            h.push(*w, *s);
        }
        let mut c = Circuit::new(4);
        for g in seed_gates {
            c.push(g);
        }
        let mut sv = Statevector::zero_state(4);
        sv.apply_circuit(&c);
        let e = sv.expectation(&h);
        prop_assert!(e.abs() <= h.one_norm() + 1e-9);
    }

    /// Merge-to-Root compiles arbitrary small IRs correctly: the physical
    /// circuit matches direct evolution through the final layout.
    #[test]
    fn mtr_equivalence_random_ir(
        strings in prop::collection::vec(arb_string(4), 1..6),
        thetas in prop::collection::vec(-1.5f64..1.5, 6),
        init in 0u64..16,
    ) {
        let mut ir = PauliIr::new(4, init);
        for (k, s) in strings.iter().enumerate() {
            ir.push(IrEntry { string: *s, param: k, coefficient: 0.5 });
        }
        let params = &thetas[..ir.num_parameters()];
        let topology = Topology::xtree(8);
        let layout = hierarchical_initial_layout(&ir, &topology);
        let out = merge_to_root(&ir, &topology, layout, params, MtrOptions::default());

        // Reference evolution.
        let mut logical = Statevector::basis_state(4, init);
        for e in ir.entries() {
            logical.apply_pauli_evolution(&e.string, e.rotation_angle(params[e.param]));
        }
        // Compiled path.
        let mut phys = Statevector::zero_state(8);
        phys.apply_circuit(&out.circuit);
        let mut extracted = vec![Complex64::ZERO; 16];
        for (pi, amp) in phys.amplitudes().iter().enumerate() {
            if amp.norm_sqr() < 1e-24 {
                continue;
            }
            let mut li = 0u64;
            for p in 0..8 {
                if (pi >> p) & 1 == 1 {
                    match out.final_layout.logical(p) {
                        Some(l) => li |= 1 << l,
                        None => return Err(TestCaseError::fail("ancilla excited")),
                    }
                }
            }
            extracted[li as usize] += *amp;
        }
        let overlap: Complex64 = logical
            .amplitudes()
            .iter()
            .zip(&extracted)
            .map(|(a, b)| a.conj() * *b)
            .sum();
        prop_assert!((overlap.norm() - 1.0).abs() < 1e-8, "overlap {}", overlap.norm());
    }

    /// The peephole optimizer preserves circuit semantics exactly.
    #[test]
    fn peephole_preserves_semantics(gates in prop::collection::vec(arb_gate(4), 0..40)) {
        use pauli_codesign::compiler::peephole::peephole_optimize;
        let mut c = Circuit::new(4);
        for g in gates {
            c.push(g);
        }
        let (opt, _) = peephole_optimize(&c);
        prop_assert!(opt.gate_count() <= c.gate_count());
        // Compare action on two different input states.
        for seed in [0b0000u64, 0b1011] {
            let mut a = Statevector::basis_state(4, seed);
            a.apply_gate(&Gate::H(0));
            let mut b = a.clone();
            a.apply_circuit(&c);
            b.apply_circuit(&opt);
            let overlap = a.inner(&b);
            prop_assert!(
                (overlap.norm() - 1.0).abs() < 1e-9,
                "peephole changed semantics: |overlap| = {}",
                overlap.norm()
            );
            // Rewrites used are phase-exact, not just up to global phase.
            prop_assert!((overlap.re - 1.0).abs() < 1e-9);
        }
    }

    /// SABRE-routed circuits never violate the coupling graph.
    #[test]
    fn sabre_respects_topology(gates in prop::collection::vec(arb_gate(5), 1..30)) {
        let mut c = Circuit::new(5);
        for g in gates {
            c.push(g);
        }
        let t = Topology::xtree(8);
        let out = sabre_route(&c, &t, Layout::trivial(5, 8), SabreOptions::default());
        for g in out.circuit.gates() {
            if g.is_two_qubit() {
                let qs = g.qubits();
                prop_assert!(t.are_connected(qs[0], qs[1]));
            }
        }
    }

    /// Yield estimates are probabilities and (weakly) favor the tree.
    #[test]
    fn yield_is_probability(sigma in 0.0f64..0.3, seed in 0u64..50) {
        let model = CollisionModel::default();
        let x = simulate_yield(&Topology::xtree(8), &model, sigma, 300, seed);
        prop_assert!(x.yield_rate >= 0.0 && x.yield_rate <= 1.0);
    }
}
