//! The circuit container and its structural utilities.

use std::fmt;

use crate::gate::Gate;

/// An ordered list of gates on a fixed-width qubit register.
///
/// This is the common currency between the ansatz generator, the compiler
/// backends and the simulators. Cost accessors ([`cnot_count`],
/// [`two_qubit_count`]) implement the paper's evaluation metric, where SWAPs
/// are charged as three CNOTs.
///
/// [`cnot_count`]: Circuit::cnot_count
/// [`two_qubit_count`]: Circuit::two_qubit_count
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(3);
/// c.push(Gate::H(2));
/// c.push(Gate::Cnot { control: 2, target: 0 });
/// c.push(Gate::Swap(0, 1));
/// assert_eq!(c.cnot_count(), 4); // 1 CNOT + SWAP charged as 3
/// assert_eq!(c.depth(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register, or if a
    /// two-qubit gate addresses the same qubit twice.
    pub fn push(&mut self, gate: Gate) {
        let qs = gate.qubits();
        for &q in &qs {
            assert!(
                q < self.num_qubits,
                "gate {gate} outside register of {}",
                self.num_qubits
            );
        }
        if qs.len() == 2 {
            assert_ne!(
                qs[0], qs[1],
                "two-qubit gate with identical operands: {gate}"
            );
        }
        self.gates.push(gate);
    }

    /// Appends all gates of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is wider than this circuit.
    pub fn append(&mut self, other: &Circuit) {
        assert!(
            other.num_qubits <= self.num_qubits,
            "appended circuit too wide"
        );
        for &g in &other.gates {
            self.push(g);
        }
    }

    /// Borrows the gate list.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterates over the gates in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Total gate count (SWAP counts as one gate here; see
    /// [`cnot_count`](Circuit::cnot_count) for the cost metric).
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// CNOT cost: CNOTs plus 3 per SWAP (a SWAP decomposes into 3 CNOTs on
    /// cross-resonance hardware). This is the paper's §VI metric.
    pub fn cnot_count(&self) -> usize {
        self.gates
            .iter()
            .map(|g| match g {
                Gate::Cnot { .. } => 1,
                Gate::Swap(_, _) => 3,
                _ => 0,
            })
            .sum()
    }

    /// Number of two-qubit gate *instructions* (SWAP counted once).
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit gates.
    pub fn single_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_two_qubit()).count()
    }

    /// Circuit depth: the longest chain of gates sharing qubits.
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.num_qubits];
        for g in &self.gates {
            let qs = g.qubits();
            let level = qs.iter().map(|&q| frontier[q]).max().unwrap_or(0) + 1;
            for q in qs {
                frontier[q] = level;
            }
        }
        frontier.into_iter().max().unwrap_or(0)
    }

    /// The inverse (dagger) circuit: gates reversed and individually
    /// inverted.
    pub fn inverse(&self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().map(Gate::inverse).collect(),
        }
    }

    /// Rewrites every SWAP as its 3-CNOT decomposition.
    pub fn decompose_swaps(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for &g in &self.gates {
            if let Gate::Swap(a, b) = g {
                out.push(Gate::Cnot {
                    control: a,
                    target: b,
                });
                out.push(Gate::Cnot {
                    control: b,
                    target: a,
                });
                out.push(Gate::Cnot {
                    control: a,
                    target: b,
                });
            } else {
                out.push(g);
            }
        }
        out
    }

    /// Relabels every gate's qubits through `map`.
    ///
    /// # Panics
    ///
    /// Panics if `map` sends a qubit outside the register.
    pub fn remapped(&self, map: impl Fn(usize) -> usize) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for g in &self.gates {
            out.push(g.remapped(&map));
        }
        out
    }

    /// Serializes to OpenQASM 2.0, the interchange format understood by
    /// Qiskit and most other toolchains.
    ///
    /// # Examples
    ///
    /// ```
    /// use circuit::{Circuit, Gate};
    ///
    /// let mut c = Circuit::new(2);
    /// c.push(Gate::H(0));
    /// c.push(Gate::Cnot { control: 0, target: 1 });
    /// let qasm = c.to_qasm();
    /// assert!(qasm.starts_with("OPENQASM 2.0;"));
    /// assert!(qasm.contains("cx q[0],q[1];"));
    /// ```
    pub fn to_qasm(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
        let _ = writeln!(out, "qreg q[{}];", self.num_qubits);
        for g in &self.gates {
            let line = match *g {
                Gate::H(q) => format!("h q[{q}];"),
                Gate::X(q) => format!("x q[{q}];"),
                Gate::Y(q) => format!("y q[{q}];"),
                Gate::Z(q) => format!("z q[{q}];"),
                Gate::S(q) => format!("s q[{q}];"),
                Gate::Sdg(q) => format!("sdg q[{q}];"),
                Gate::Rx(q, t) => format!("rx({t:.16e}) q[{q}];"),
                Gate::Ry(q, t) => format!("ry({t:.16e}) q[{q}];"),
                Gate::Rz(q, t) => format!("rz({t:.16e}) q[{q}];"),
                Gate::Cnot { control, target } => format!("cx q[{control}],q[{target}];"),
                Gate::Swap(a, b) => format!("swap q[{a}],q[{b}];"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Set of qubits touched by at least one gate.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for g in &self.gates {
            for q in g.qubits() {
                used[q] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(q, _)| q)
            .collect()
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "qreg q[{}];", self.num_qubits)?;
        for g in &self.gates {
            writeln!(f, "{g};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_depth() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::H(1));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        c.push(Gate::Rz(1, 0.5));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.cnot_count(), 2);
        assert_eq!(c.single_qubit_count(), 3);
        // q0: H, CX, CX → but CX syncs with q1's chain: H(0)|H(1) level 1,
        // CX level 2, Rz level 3, CX level 4.
        assert_eq!(c.depth(), 4);
    }

    #[test]
    fn swap_costs_three_cnots() {
        let mut c = Circuit::new(2);
        c.push(Gate::Swap(0, 1));
        assert_eq!(c.cnot_count(), 3);
        let d = c.decompose_swaps();
        assert_eq!(d.gate_count(), 3);
        assert_eq!(d.cnot_count(), 3);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.push(Gate::S(0));
        c.push(Gate::Rz(1, 0.3));
        let inv = c.inverse();
        assert_eq!(inv.gates()[0], Gate::Rz(1, -0.3));
        assert_eq!(inv.gates()[1], Gate::Sdg(0));
    }

    #[test]
    fn remap_relabels() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        let r = c.remapped(|q| 3 - q);
        assert_eq!(
            r.gates()[0],
            Gate::Cnot {
                control: 3,
                target: 2
            }
        );
    }

    #[test]
    fn active_qubits_reports_touched() {
        let mut c = Circuit::new(5);
        c.push(Gate::H(1));
        c.push(Gate::Cnot {
            control: 3,
            target: 1,
        });
        assert_eq!(c.active_qubits(), vec![1, 3]);
    }

    #[test]
    fn qasm_export_covers_all_gates() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::X(1));
        c.push(Gate::Y(1));
        c.push(Gate::Z(2));
        c.push(Gate::S(0));
        c.push(Gate::Sdg(0));
        c.push(Gate::Rx(1, 0.25));
        c.push(Gate::Ry(2, -0.5));
        c.push(Gate::Rz(0, 1.0));
        c.push(Gate::Cnot {
            control: 0,
            target: 2,
        });
        c.push(Gate::Swap(1, 2));
        let qasm = c.to_qasm();
        assert!(qasm.starts_with("OPENQASM 2.0;"));
        assert!(qasm.contains("qreg q[3];"));
        // One line per gate plus the 3-line header.
        assert_eq!(qasm.lines().count(), 3 + c.gate_count());
        for needle in ["h q[0];", "sdg q[0];", "cx q[0],q[2];", "swap q[1],q[2];"] {
            assert!(qasm.contains(needle), "missing `{needle}`");
        }
        // Angles are emitted in full precision.
        assert!(qasm.contains("rx(2.5"));
    }

    #[test]
    #[should_panic]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(2));
    }

    #[test]
    #[should_panic]
    fn push_rejects_degenerate_two_qubit() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot {
            control: 1,
            target: 1,
        });
    }
}
