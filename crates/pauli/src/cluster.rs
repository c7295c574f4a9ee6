//! Simultaneous diagonalization of general-commuting Pauli clusters.
//!
//! The per-term expectation sweep in [`WeightedPauliSum::expectation`] pays
//! one full amplitude pass per Pauli term. But any set of *mutually
//! commuting* terms can be rotated into the computational basis together by
//! a single Clifford circuit (van den Berg & Temme, Quantum 4, 322 (2020)):
//! after the rotation every member is a `±Z…Z` string, and all member
//! expectations read off one probability sweep. This module provides
//!
//! - [`CliffordOp`]: the H/S/S†/CNOT/CZ vocabulary with exact
//!   sign-tracking Pauli conjugation,
//! - [`DiagonalFrame`]: the diagonalizing circuit for one commuting set,
//!   built by symplectic (GF(2)) elimination,
//! - [`ClusteredSum`]: a [`WeightedPauliSum`] partitioned greedily into
//!   general-commuting (not merely qubit-wise commuting) clusters, with a
//!   fused diagonal-frame expectation evaluator,
//! - [`commutation_graph`]: the bitset commutation graph the partition
//!   grows its clusters on, filled from packed symplectic masks (one parity
//!   test per unordered pair).
//!
//! The evaluator never applies the Clifford gate-by-gate. The circuit is
//! staged as `U = H_P · D · L` — a CNOT network `L`, a diagonal layer `D`
//! of S/S†/CZ, then Hadamards on the pivot qubits `P` — and each stage is
//! fused: `L` collapses to one table-driven GF(2) gather, `D` to one
//! table-driven phase pass, `H_P` to one butterfly pass per pivot with the
//! `2^{-r/2}` normalization folded into the readout weights. The readout
//! takes every member `±Z_{z'}` from the rotated probabilities `p`: either
//! one parity pass per member, or — when a cluster has more than about
//! `n/4` members — one in-place Walsh–Hadamard transform `p̂` (`n·2ⁿ`
//! add/sub) and a lookup `p̂[z']` per member. Clusters where the rotation
//! would cost more than sweeping the members individually (e.g.
//! singletons) fall back to the per-term kernel, so clustering never loses
//! more than the partition bookkeeping.
//!
//! Determinism: clusters are evaluated with [`par::map_slice`] (fixed task
//! order) and every in-cluster loop is a fixed-order fold, so results are
//! bit-identical at any thread count — the same guarantee the per-term
//! evaluator makes.

use numeric::Complex64;

use crate::string::PauliString;
use crate::sum::WeightedPauliSum;

/// One gate of a diagonalizing Clifford circuit.
///
/// Qubit indices are `u8` to match [`PauliString`]'s 64-qubit symplectic
/// representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliffordOp {
    /// Hadamard on one qubit: swaps `X ↔ Z`.
    H(u8),
    /// Phase gate `S = diag(1, i)`: `X → Y → −X`.
    S(u8),
    /// Inverse phase gate `S† = diag(1, −i)`: `Y → X → −Y`.
    Sdg(u8),
    /// Controlled-X.
    Cnot {
        /// Control qubit.
        control: u8,
        /// Target qubit.
        target: u8,
    },
    /// Controlled-Z (symmetric in its operands).
    Cz(u8, u8),
}

impl CliffordOp {
    /// Conjugates a Pauli string through this gate: given `P` with
    /// symplectic masks `(x, z)`, returns `(x', z', neg)` such that
    /// `U·P·U† = (−1)^neg · P'`.
    ///
    /// Clifford conjugation of a Hermitian Pauli is always `±` another
    /// Hermitian Pauli — no `±i` phases arise — so a sign bit is exact.
    #[inline]
    #[must_use]
    pub fn conjugate(self, x: u64, z: u64) -> (u64, u64, bool) {
        match self {
            CliffordOp::H(q) => {
                let bx = (x >> q) & 1;
                let bz = (z >> q) & 1;
                // X ↔ Z; Y → −Y.
                let x2 = (x & !(1u64 << q)) | (bz << q);
                let z2 = (z & !(1u64 << q)) | (bx << q);
                (x2, z2, bx & bz == 1)
            }
            CliffordOp::S(q) => {
                let bx = (x >> q) & 1;
                let bz = (z >> q) & 1;
                // X → Y, Y → −X, Z → Z.
                (x, z ^ (bx << q), bx & bz == 1)
            }
            CliffordOp::Sdg(q) => {
                let bx = (x >> q) & 1;
                let bz = (z >> q) & 1;
                // X → −Y, Y → X, Z → Z.
                (x, z ^ (bx << q), bx & (bz ^ 1) == 1)
            }
            CliffordOp::Cnot { control, target } => {
                let xa = (x >> control) & 1;
                let za = (z >> control) & 1;
                let xb = (x >> target) & 1;
                let zb = (z >> target) & 1;
                // X_c → X_c·X_t, Z_t → Z_c·Z_t; sign per Aaronson–Gottesman.
                let neg = xa & zb & (xb ^ za ^ 1) == 1;
                (x ^ (xa << target), z ^ (zb << control), neg)
            }
            CliffordOp::Cz(a, b) => {
                let xa = (x >> a) & 1;
                let za = (z >> a) & 1;
                let xb = (x >> b) & 1;
                let zb = (z >> b) & 1;
                // X_a → X_a·Z_b, X_b → Z_a·X_b.
                let neg = xa & xb & (za ^ zb) == 1;
                (x, z ^ (xb << a) ^ (xa << b), neg)
            }
        }
    }

    /// The inverse gate (`U†`).
    #[must_use]
    pub fn inverse(self) -> CliffordOp {
        match self {
            CliffordOp::S(q) => CliffordOp::Sdg(q),
            CliffordOp::Sdg(q) => CliffordOp::S(q),
            other => other,
        }
    }

    /// The qubit(s) this gate touches.
    #[must_use]
    pub fn qubits(self) -> (u8, Option<u8>) {
        match self {
            CliffordOp::H(q) | CliffordOp::S(q) | CliffordOp::Sdg(q) => (q, None),
            CliffordOp::Cnot { control, target } => (control, Some(target)),
            CliffordOp::Cz(a, b) => (a, Some(b)),
        }
    }
}

/// Errors from [`DiagonalFrame::for_commuting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// Two input strings anti-commute (indices into the input slice).
    NonCommuting(usize, usize),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NonCommuting(a, b) => {
                write!(f, "strings {a} and {b} anti-commute")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A Clifford circuit `U` (H/S/S†/CNOT/CZ) that conjugates every member of
/// one commuting Pauli set to a `±Z…Z` string: `U·P·U† = ±Z_{z'}`.
///
/// The gate list is staged — CNOTs first, then the diagonal S/S†/CZ layer,
/// then Hadamards on the pivot qubits — which both the fused evaluator and
/// the compiler pass rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagonalFrame {
    num_qubits: usize,
    ops: Vec<CliffordOp>,
    pivots: u64,
}

impl DiagonalFrame {
    /// Builds the diagonalizing circuit for a set of mutually commuting
    /// Pauli strings.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NonCommuting`] if any pair anti-commutes.
    ///
    /// # Panics
    ///
    /// Panics if a string's qubit count exceeds `num_qubits`.
    pub fn for_commuting(
        num_qubits: usize,
        strings: &[PauliString],
    ) -> Result<DiagonalFrame, ClusterError> {
        for (i, a) in strings.iter().enumerate() {
            assert!(
                a.num_qubits() <= num_qubits,
                "string wider than the register"
            );
            for (j, b) in strings.iter().enumerate().skip(i + 1) {
                if !a.commutes_with(b) {
                    return Err(ClusterError::NonCommuting(i, j));
                }
            }
        }
        Ok(Self::for_commuting_unchecked(num_qubits, strings))
    }

    /// As [`for_commuting`](Self::for_commuting) but trusting the caller's
    /// commutation guarantee (the partitioner has already checked pairs).
    fn for_commuting_unchecked(num_qubits: usize, strings: &[PauliString]) -> DiagonalFrame {
        // 1. GF(2) basis of the symplectic span of the members. Row
        //    products (XORs) stay inside the generated group, so any basis
        //    that diagonalizes also diagonalizes every member.
        let mut rows: Vec<(u64, u64)> = Vec::new();
        for s in strings {
            let mut v = (s.x_mask(), s.z_mask());
            // A string that reduces to identity is dependent and dropped.
            while let Some(lead) = leading_bit(v) {
                match rows.iter().find(|r| leading_bit(**r) == Some(lead)) {
                    Some(r) => {
                        v.0 ^= r.0;
                        v.1 ^= r.1;
                    }
                    None => {
                        rows.push(v);
                        break;
                    }
                }
            }
        }

        // 2. Reduced row echelon form of the X-block (row ops only — free,
        //    they never leave the group). Afterwards rows[0..r] carry the
        //    pivots and rows[r..] are pure-Z.
        let mut pivot_cols: Vec<u32> = Vec::new();
        let mut rank = 0usize;
        for col in 0..num_qubits as u32 {
            let Some(hit) = (rank..rows.len()).find(|&i| (rows[i].0 >> col) & 1 == 1) else {
                continue;
            };
            rows.swap(rank, hit);
            for j in 0..rows.len() {
                if j != rank && (rows[j].0 >> col) & 1 == 1 {
                    let (px, pz) = rows[rank];
                    rows[j].0 ^= px;
                    rows[j].1 ^= pz;
                }
            }
            pivot_cols.push(col);
            rank += 1;
        }

        let mut ops: Vec<CliffordOp> = Vec::new();
        let conj_all = |op: CliffordOp, rows: &mut [(u64, u64)]| {
            for row in rows.iter_mut() {
                let (x, z, _) = op.conjugate(row.0, row.1);
                *row = (x, z);
            }
        };

        // 3. CNOT stage: clear every off-pivot X bit. After RREF the pivot
        //    column q_i is set only in row i, so CNOT(q_i → c) touches the
        //    X-block of row i alone.
        for (i, &q) in pivot_cols.iter().enumerate() {
            let mut extra = rows[i].0 & !(1u64 << q);
            while extra != 0 {
                let c = extra.trailing_zeros();
                extra &= extra - 1;
                let op = CliffordOp::Cnot {
                    control: q as u8,
                    target: c as u8,
                };
                conj_all(op, &mut rows);
                ops.push(op);
            }
        }

        // 4. Diagonal stage: per pivot row, S† turns a Y pivot into X, then
        //    CZ(q_i, c) clears the remaining Z bits. Commutation makes the
        //    Z-block symmetric across pivot rows, so clearing row i's bit at
        //    q_j simultaneously clears row j's bit at q_i — sequential
        //    processing never revisits a row.
        for (i, &q) in pivot_cols.iter().enumerate() {
            if (rows[i].1 >> q) & 1 == 1 {
                let op = CliffordOp::Sdg(q as u8);
                conj_all(op, &mut rows);
                ops.push(op);
            }
            let mut zb = rows[i].1 & !(1u64 << q);
            while zb != 0 {
                let c = zb.trailing_zeros();
                zb &= zb - 1;
                let op = CliffordOp::Cz(q as u8, c as u8);
                conj_all(op, &mut rows);
                ops.push(op);
            }
        }

        // 5. Hadamard stage: X_{q_i} → Z_{q_i}. Pure-Z rows carry no Z bits
        //    on pivot columns (forced by commutation with the pivot rows),
        //    so they stay diagonal.
        let mut pivots = 0u64;
        for &q in &pivot_cols {
            pivots |= 1u64 << q;
            ops.push(CliffordOp::H(q as u8));
        }

        debug_assert!(rows
            .iter()
            .skip(rank)
            .all(|r| r.0 == 0 && r.1 & pivots == 0));

        DiagonalFrame {
            num_qubits,
            ops,
            pivots,
        }
    }

    /// The gate list, in application order (first gate acts first on the
    /// state).
    #[must_use]
    pub fn ops(&self) -> &[CliffordOp] {
        &self.ops
    }

    /// Bit mask of the pivot qubits (the Hadamard layer's support).
    #[must_use]
    pub fn pivot_mask(&self) -> u64 {
        self.pivots
    }

    /// Number of pivot qubits `r` (the cluster's entangling rank).
    #[must_use]
    pub fn num_pivots(&self) -> u32 {
        self.pivots.count_ones()
    }

    /// Register width this frame was built for.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Conjugates `p` through the circuit. Returns `(z', sign)` with
    /// `U·P·U† = sign·Z_{z'}` when the result is diagonal, `None` otherwise
    /// (never for a member of the group the frame was built from).
    #[must_use]
    pub fn diagonalize(&self, p: &PauliString) -> Option<(u64, f64)> {
        let (mut x, mut z) = (p.x_mask(), p.z_mask());
        let mut neg = false;
        for op in &self.ops {
            let (nx, nz, n) = op.conjugate(x, z);
            x = nx;
            z = nz;
            neg ^= n;
        }
        if x != 0 {
            return None;
        }
        Some((z, if neg { -1.0 } else { 1.0 }))
    }

    /// Greedy layered depth of the circuit (each gate occupies its qubits
    /// for one layer; CZ counts as one layer).
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut depth = 0usize;
        for op in &self.ops {
            let (a, b) = op.qubits();
            let d = match b {
                Some(b) => level[a as usize].max(level[b as usize]) + 1,
                None => level[a as usize] + 1,
            };
            level[a as usize] = d;
            if let Some(b) = b {
                level[b as usize] = d;
            }
            depth = depth.max(d);
        }
        depth
    }
}

/// Leading set bit of a symplectic vector, X-block above Z-block.
fn leading_bit(v: (u64, u64)) -> Option<u32> {
    if v.0 != 0 {
        Some(64 + (63 - v.0.leading_zeros()))
    } else if v.1 != 0 {
        Some(63 - v.1.leading_zeros())
    } else {
        None
    }
}

/// Per-amplitude cost units for the fused-vs-per-term decision. Only the
/// ratios matter; these are calibrated to the repo's kernels (a per-term
/// sweep does a conjugated multiply + popcount per amplitude, the fused
/// stages are table lookups or add/sub butterflies). One real
/// Walsh–Hadamard pass over the probabilities runs about four times faster
/// than one member's parity pass (≈0.45 vs ≈2 ns per amplitude on an
/// x86-64 core at 12 qubits).
const COST_COPY: f64 = 1.0;
const COST_GATHER: f64 = 3.0;
const COST_PHASE: f64 = 2.5;
const COST_BUTTERFLY: f64 = 2.5;
const COST_READOUT_PER_MEMBER: f64 = 2.0;
const COST_TRANSFORM_PER_QUBIT: f64 = 0.5;
const COST_TERM_PER_MEMBER: f64 = 8.0;

/// Widest register the fused evaluator builds half-index tables for; the
/// statevector simulator caps at 24 qubits, so this is never the binding
/// limit in practice.
const MAX_FUSED_QUBITS: usize = 26;

/// Fused evaluation tables for one cluster: the diagonalizing circuit
/// collapsed to (gather, phase, butterflies, readout).
#[derive(Debug, Clone)]
struct FusedEval {
    /// Register width `n`.
    num_qubits: u32,
    /// Low half width of the index split.
    lo_bits: u32,
    /// GF(2) gather tables: source index = `glo[lo] ^ ghi[hi]`. Empty when
    /// the circuit has no CNOTs.
    glo: Vec<u64>,
    ghi: Vec<u64>,
    /// Phase-exponent tables (powers of `i`, mod 4) for the diagonal layer,
    /// plus the cross-half CZ parity masks. Empty when the layer is empty.
    plo: Vec<u8>,
    phi: Vec<u8>,
    mcross: Vec<u64>,
    /// Pivot qubits (butterfly passes).
    pivots: u64,
    /// Per member: diagonal mask `z'` and readout weight
    /// `w·sign·2^{−r}` (normalization of the unnormalized butterflies).
    diag: Vec<(u64, f64)>,
}

impl FusedEval {
    fn build(
        num_qubits: usize,
        frame: &DiagonalFrame,
        members: &[(f64, PauliString)],
    ) -> Option<FusedEval> {
        let lo_bits = (num_qubits as u32).div_ceil(2);
        let hi_bits = num_qubits as u32 - lo_bits;

        // Split the staged op list; the builder guarantees CNOTs, then
        // diagonal, then H, but verify and bail to the per-term path if a
        // future frame violates it.
        let mut cnots: Vec<(u8, u8)> = Vec::new();
        let mut diag_ops: Vec<CliffordOp> = Vec::new();
        let mut stage = 0u8;
        for &op in frame.ops() {
            match op {
                CliffordOp::Cnot { control, target } => {
                    if stage > 0 {
                        return None;
                    }
                    cnots.push((control, target));
                }
                CliffordOp::S(_) | CliffordOp::Sdg(_) | CliffordOp::Cz(..) => {
                    if stage > 1 {
                        return None;
                    }
                    stage = 1;
                    diag_ops.push(op);
                }
                CliffordOp::H(_) => stage = 2,
            }
        }

        // Gather tables: maintain the columns of T⁻¹ where T is the CNOT
        // network's basis permutation. Appending CNOT(c→t) maps
        // col_c ^= col_t; then src(j) = ⊕_{q ∈ j} col_q, tabulated per
        // index half.
        let (glo, ghi) = if cnots.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let mut cols: Vec<u64> = (0..num_qubits).map(|q| 1u64 << q).collect();
            for &(c, t) in &cnots {
                cols[c as usize] ^= cols[t as usize];
            }
            (
                subset_xor_table(&cols[..lo_bits as usize]),
                subset_xor_table(&cols[lo_bits as usize..]),
            )
        };

        // Phase tables: exponent of i per basis index, mod 4. S adds 1·b_q,
        // S† adds 3·b_q, CZ adds 2·b_a·b_b. Within-half contributions are
        // tabulated; cross-half CZ pairs become a per-hi parity mask over
        // the low half. XOR-accumulating pair masks makes duplicate CZs
        // cancel exactly as the phases do.
        let (plo, phi, mcross) = if diag_ops.is_empty() {
            (Vec::new(), Vec::new(), Vec::new())
        } else {
            let n = num_qubits;
            let mut e1 = vec![0u8; n];
            let mut pair = vec![0u64; n];
            let mut cross_of_hi = vec![0u64; hi_bits as usize];
            for &op in &diag_ops {
                match op {
                    CliffordOp::S(q) => e1[q as usize] = (e1[q as usize] + 1) & 3,
                    CliffordOp::Sdg(q) => e1[q as usize] = (e1[q as usize] + 3) & 3,
                    CliffordOp::Cz(a, b) => {
                        let (a, b) = (a as u32, b as u32);
                        if a < lo_bits && b < lo_bits || a >= lo_bits && b >= lo_bits {
                            pair[a as usize] ^= 1u64 << b;
                            pair[b as usize] ^= 1u64 << a;
                        } else {
                            let (lo, hi) = if a < lo_bits { (a, b) } else { (b, a) };
                            cross_of_hi[(hi - lo_bits) as usize] ^= 1u64 << lo;
                        }
                    }
                    _ => return None,
                }
            }
            let plo = phase_table(&e1[..lo_bits as usize], &pair[..lo_bits as usize], 0);
            let phi = phase_table(&e1[lo_bits as usize..], &pair[lo_bits as usize..], lo_bits);
            let mcross = subset_xor_table(&cross_of_hi);
            (plo, phi, mcross)
        };

        let r = frame.num_pivots();
        let norm = (0.5f64).powi(r as i32);
        let mut diag = Vec::with_capacity(members.len());
        for &(w, p) in members {
            let (z, sign) = frame.diagonalize(&p)?;
            diag.push((z, w * sign * norm));
        }

        Some(FusedEval {
            num_qubits: num_qubits as u32,
            lo_bits,
            glo,
            ghi,
            plo,
            phi,
            mcross,
            pivots: frame.pivot_mask(),
            diag,
        })
    }

    /// Estimated per-amplitude cost of this fused evaluation.
    fn cost(&self) -> f64 {
        let gather = if self.glo.is_empty() {
            COST_COPY
        } else {
            COST_GATHER
        };
        let phase = if self.plo.is_empty() { 0.0 } else { COST_PHASE };
        let (transform, per_member) = self.readout_costs();
        gather
            + phase
            + COST_BUTTERFLY * f64::from(self.pivots.count_ones())
            + transform.min(per_member)
    }

    /// `Σ_m w_m·⟨ψ|P_m|ψ⟩` for every member at once: rotate `ψ` into the
    /// diagonal frame, then read every member from the rotated
    /// probabilities — by one Walsh–Hadamard transform when the cost model
    /// favours it, by one parity sweep otherwise. Inner loops are
    /// branchless — the phase rotation multiplies by a 4-entry `i^e` table
    /// and the per-member readout flips the sign bit directly — because
    /// `e` and the member parities are effectively random and a
    /// conditional would mispredict half the time.
    fn expectation(&self, state: &[Complex64]) -> f64 {
        let buf = self.rotate(state);
        let (transform, per_member) = self.readout_costs();
        if transform < per_member {
            self.readout_by_transform(&buf)
        } else {
            self.readout_per_member(&buf)
        }
    }

    /// `U·ψ` scaled by `2^{r/2}` (the butterflies are unnormalized):
    /// gather and phase fused into one pass, then one butterfly pass per
    /// pivot.
    fn rotate(&self, state: &[Complex64]) -> Vec<Complex64> {
        let dim = state.len();
        let lo_mask = (1usize << self.lo_bits) - 1;
        const PH: [Complex64; 4] = [
            Complex64::new(1.0, 0.0),
            Complex64::new(0.0, 1.0),
            Complex64::new(-1.0, 0.0),
            Complex64::new(0.0, -1.0),
        ];

        // Stages L and D in one pass: gather through the CNOT network and
        // apply the diagonal phase as the amplitude lands.
        let has_gather = !self.glo.is_empty();
        let has_phase = !self.plo.is_empty();
        let mut buf: Vec<Complex64> = match (has_gather, has_phase) {
            (false, false) => state.to_vec(),
            (true, false) => (0..dim)
                .map(|j| {
                    let src = self.glo[j & lo_mask] ^ self.ghi[j >> self.lo_bits];
                    state[src as usize]
                })
                .collect(),
            (gather, true) => {
                let mut buf = Vec::with_capacity(dim);
                let blocks = dim >> self.lo_bits;
                for hi in 0..blocks {
                    let pe = self.phi[hi];
                    let m = self.mcross[hi];
                    let base = hi << self.lo_bits;
                    let ghi = if gather { self.ghi[hi] } else { 0 };
                    for lo in 0..=lo_mask {
                        let a = if gather {
                            state[(self.glo[lo] ^ ghi) as usize]
                        } else {
                            state[base + lo]
                        };
                        let cross = (((lo as u64 & m).count_ones() & 1) as u8) << 1;
                        let e = (self.plo[lo] + pe + cross) & 3;
                        buf.push(a * PH[e as usize]);
                    }
                }
                buf
            }
        };

        // Stage H_P: unnormalized butterflies per pivot qubit; the 2^{-r}
        // lives in the readout weights.
        let mut piv = self.pivots;
        while piv != 0 {
            let q = piv.trailing_zeros();
            piv &= piv - 1;
            butterfly(&mut buf, 1usize << q);
        }
        buf
    }

    /// Per-amplitude costs of the two readouts: the Walsh–Hadamard
    /// transform (`n` real butterfly passes, whatever the member count)
    /// and the per-member parity pass.
    fn readout_costs(&self) -> (f64, f64) {
        (
            COST_TRANSFORM_PER_QUBIT * f64::from(self.num_qubits),
            COST_READOUT_PER_MEMBER * self.diag.len() as f64,
        )
    }

    /// Readout, one member at a time: every member from one probability
    /// sweep, sign applied by XOR-ing the parity into the f64 sign bit.
    /// The oracle for [`readout_by_transform`](Self::readout_by_transform),
    /// and the cheaper path for clusters of a few members.
    fn readout_per_member(&self, buf: &[Complex64]) -> f64 {
        let mut acc = vec![0.0f64; self.diag.len()];
        for (b, a) in buf.iter().enumerate() {
            let p = a.norm_sqr().to_bits();
            for (s, &(zm, _)) in acc.iter_mut().zip(&self.diag) {
                let parity = (u64::from((b as u64 & zm).count_ones()) & 1) << 63;
                *s += f64::from_bits(p ^ parity);
            }
        }
        self.diag.iter().zip(&acc).map(|(&(_, c), &s)| c * s).sum()
    }

    /// Readout through the Walsh–Hadamard transform of the probabilities:
    /// `p̂[z] = Σ_b (−1)^{|b ∧ z|}·p[b]` is the unweighted expectation of
    /// `Z_z`, so one in-place transform (`n·2ⁿ` add/sub) serves every
    /// member with one lookup each.
    fn readout_by_transform(&self, buf: &[Complex64]) -> f64 {
        let mut p: Vec<f64> = buf.iter().map(|a| a.norm_sqr()).collect();
        for q in 0..self.num_qubits {
            butterfly(&mut p, 1usize << q);
        }
        self.diag.iter().map(|&(zm, c)| c * p[zm as usize]).sum()
    }
}

/// One unnormalized Hadamard pass on the qubit of stride `stride`:
/// `(a, b) → (a + b, a − b)` for every index pair differing in that bit.
/// The split borrows let the add/sub loop run without bounds checks.
fn butterfly<T>(buf: &mut [T], stride: usize)
where
    T: Copy + std::ops::Add<Output = T> + std::ops::Sub<Output = T>,
{
    if stride == 1 {
        for pair in buf.chunks_exact_mut(2) {
            let a = pair[0];
            let b = pair[1];
            pair[0] = a + b;
            pair[1] = a - b;
        }
    } else {
        for block in buf.chunks_exact_mut(stride << 1) {
            let (lhs, rhs) = block.split_at_mut(stride);
            for (a, b) in lhs.iter_mut().zip(rhs) {
                let x = *a;
                let y = *b;
                *a = x + y;
                *b = x - y;
            }
        }
    }
}

/// `out[v] = ⊕_{q ∈ v} cols[q]` for every subset `v`, built incrementally.
fn subset_xor_table(cols: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; 1usize << cols.len()];
    for v in 1..out.len() {
        let t = v.trailing_zeros() as usize;
        out[v] = out[v & (v - 1)] ^ cols[t];
    }
    out
}

/// Phase-exponent table over one index half: `out[v] = Σ_{q ∈ v} e1[q] +
/// 2·#{CZ pairs inside v}` (mod 4). `pair[q]` holds the half-local partner
/// mask of qubit `offset + q`, shifted to global bit positions.
fn phase_table(e1: &[u8], pair: &[u64], offset: u32) -> Vec<u8> {
    let mut out = vec![0u8; 1usize << e1.len()];
    for v in 1..out.len() {
        let t = v.trailing_zeros() as usize;
        let rest = (v & (v - 1)) as u64;
        // `rest` only holds bits above t, so the symmetric partner mask
        // counts each pair exactly once.
        let pairs = (rest & (pair[t] >> offset)).count_ones() as u8;
        out[v] = (out[v & (v - 1)] + e1[t] + ((pairs & 1) << 1)) & 3;
    }
    out
}

/// The general-commutation graph of `sum`'s terms as bitset rows: bit `j`
/// of `rows[i]` (word `j / 64`, bit `j % 64`) is set when terms `i` and `j`
/// commute, the diagonal included. Each row holds `⌈len/64⌉` words (at
/// least one).
///
/// Filled from the packed `(x, z)` masks, upper triangle only: one
/// symplectic-parity test per pair sets both bits. It equals the graph of
/// pairwise [`PauliString::commutes_with`] calls bit for bit, so the
/// greedy partition of [`ClusteredSum::build`] does not depend on which
/// fills it.
///
/// # Examples
///
/// ```
/// use pauli::{commutation_graph, WeightedPauliSum};
///
/// let mut h = WeightedPauliSum::new(2);
/// for s in ["XX", "ZZ", "XI"] {
///     h.push(1.0, s.parse().unwrap());
/// }
/// let rows = commutation_graph(&h);
/// assert_eq!(rows, vec![vec![0b111], vec![0b011], vec![0b101]]);
/// ```
#[must_use]
pub fn commutation_graph(sum: &WeightedPauliSum) -> Vec<Vec<u64>> {
    let terms = sum.len();
    let words = terms.div_ceil(64).max(1);
    let masks: Vec<(u64, u64)> = sum.iter().map(|(_, p)| (p.x_mask(), p.z_mask())).collect();
    let mut rows = vec![vec![0u64; words]; terms];
    for (i, &(xi, zi)) in masks.iter().enumerate() {
        let (wi, bit_i) = (i / 64, 1u64 << (i % 64));
        // Row i from column i on, a word at a time; each test also sets
        // bit i of row j. Branchless: the parity is a coin flip per pair.
        for w in wi..words {
            let mut word = 0u64;
            for (j, &(xj, zj)) in masks
                .iter()
                .enumerate()
                .take((w + 1) * 64)
                .skip(i.max(w * 64))
            {
                let commute = u64::from(((xi & zj) ^ (zi & xj)).count_ones() & 1 ^ 1);
                word |= commute << (j % 64);
                rows[j][wi] |= commute.wrapping_neg() & bit_i;
            }
            rows[i][w] |= word;
        }
    }
    rows
}

/// One general-commuting cluster of a [`ClusteredSum`].
#[derive(Debug, Clone)]
struct Cluster {
    /// Original `(weight, string)` members, in descending-|weight| pick
    /// order.
    members: Vec<(f64, PauliString)>,
    frame: DiagonalFrame,
    /// Fused tables when the rotation beats the per-term sweep.
    fused: Option<FusedEval>,
}

impl Cluster {
    fn new(num_qubits: usize, members: Vec<(f64, PauliString)>) -> Cluster {
        let strings: Vec<PauliString> = members.iter().map(|&(_, p)| p).collect();
        let frame = DiagonalFrame::for_commuting_unchecked(num_qubits, &strings);
        let fused = if num_qubits <= MAX_FUSED_QUBITS {
            FusedEval::build(num_qubits, &frame, &members)
                .filter(|f| f.cost() < COST_TERM_PER_MEMBER * members.len() as f64)
        } else {
            None
        };
        Cluster {
            members,
            frame,
            fused,
        }
    }

    fn expectation(&self, state: &[Complex64]) -> f64 {
        match &self.fused {
            Some(f) => f.expectation(state),
            None => self
                .members
                .iter()
                .map(|&(w, p)| crate::sum::term_expectation(state, w, p))
                .sum(),
        }
    }
}

/// Aggregate structure of a [`ClusteredSum`], for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Number of clusters (measurement settings).
    pub clusters: usize,
    /// Total terms across clusters.
    pub terms: usize,
    /// Largest cluster size.
    pub largest: usize,
    /// Clusters with a single member.
    pub singletons: usize,
    /// Clusters evaluated on the fused diagonal-frame path.
    pub fused: usize,
    /// Total Clifford ops across all frames (CZ counted once).
    pub clifford_ops: usize,
    /// Maximum layered depth of any frame's circuit.
    pub clifford_depth: usize,
}

/// A [`WeightedPauliSum`] partitioned into general-commuting clusters, each
/// with its diagonalizing Clifford frame and fused evaluation tables.
///
/// Build once, evaluate many times (a VQE loop calls
/// [`expectation`](Self::expectation) thousands of times against the same
/// Hamiltonian).
#[derive(Debug, Clone)]
pub struct ClusteredSum {
    num_qubits: usize,
    clusters: Vec<Cluster>,
}

impl ClusteredSum {
    /// Partitions `sum` greedily: terms in descending |weight| order, each
    /// placed in the first cluster whose every member commutes with it
    /// (general symplectic commutation, not merely qubit-wise).
    #[must_use]
    pub fn build(sum: &WeightedPauliSum) -> ClusteredSum {
        let n = sum.num_qubits();
        // Every cluster pays a fixed transform cost, so fewer, larger
        // clusters win. Grow one clique of the commutation graph at a
        // time: seed with the heaviest unassigned term, then repeatedly
        // add the compatible term that keeps the most other compatible
        // terms alive (greedy max-retention). Ties break by weight then
        // index, so the partition is deterministic.
        let terms = sum.len();
        let words = terms.div_ceil(64).max(1);
        // Commutation graph as bitset rows: retention counts below reduce
        // to AND + popcount sweeps, keeping the build near-linear in
        // practice for thousand-term molecular Hamiltonians.
        let commute = commutation_graph(sum);
        let mut order: Vec<usize> = (0..terms).collect();
        order.sort_by(|&i, &j| sum[j].0.abs().total_cmp(&sum[i].0.abs()).then(i.cmp(&j)));
        let mut rank = vec![0usize; terms];
        for (r, &t) in order.iter().enumerate() {
            rank[t] = r;
        }

        let mut unassigned = vec![0u64; words];
        for t in 0..terms {
            unassigned[t / 64] |= 1u64 << (t % 64);
        }
        let mut groups: Vec<Vec<(f64, PauliString)>> = Vec::new();
        for &seed in &order {
            if unassigned[seed / 64] & (1u64 << (seed % 64)) == 0 {
                continue;
            }
            unassigned[seed / 64] &= !(1u64 << (seed % 64));
            let mut members = vec![seed];
            let mut cand: Vec<u64> = unassigned
                .iter()
                .zip(&commute[seed])
                .map(|(&u, &c)| u & c)
                .collect();
            loop {
                // Pick the candidate retaining the most of the rest; ties
                // break by weight rank.
                let mut best: Option<(usize, usize)> = None;
                for w in 0..words {
                    let mut bits = cand[w];
                    while bits != 0 {
                        let c = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let kept: usize = cand
                            .iter()
                            .zip(&commute[c])
                            .map(|(&a, &m)| (a & m).count_ones() as usize)
                            .sum();
                        let better = match best {
                            None => true,
                            Some((bk, br)) => kept > bk || (kept == bk && rank[c] < br),
                        };
                        if better {
                            best = Some((kept, rank[c]));
                        }
                    }
                }
                let Some((_, r)) = best else { break };
                let chosen = order[r];
                let (cw, cb) = (chosen / 64, 1u64 << (chosen % 64));
                unassigned[cw] &= !cb;
                members.push(chosen);
                for (a, &m) in cand.iter_mut().zip(&commute[chosen]) {
                    *a &= m;
                }
                cand[cw] &= !cb;
            }
            groups.push(members.iter().map(|&t| sum[t]).collect());
        }

        let clusters = groups
            .into_iter()
            .map(|members| Cluster::new(n, members))
            .collect();
        ClusteredSum {
            num_qubits: n,
            clusters,
        }
    }

    /// Register width.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Aggregate structure for reports.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        let mut s = ClusterStats {
            clusters: self.clusters.len(),
            terms: 0,
            largest: 0,
            singletons: 0,
            fused: 0,
            clifford_ops: 0,
            clifford_depth: 0,
        };
        for c in &self.clusters {
            s.terms += c.members.len();
            s.largest = s.largest.max(c.members.len());
            if c.members.len() == 1 {
                s.singletons += 1;
            }
            if c.fused.is_some() {
                s.fused += 1;
            }
            s.clifford_ops += c.frame.ops().len();
            s.clifford_depth = s.clifford_depth.max(c.frame.depth());
        }
        s
    }

    /// `⟨ψ|H|ψ⟩` via one diagonal-frame rotation per cluster.
    ///
    /// Clusters are evaluated in fixed order (parallel across clusters,
    /// serial within), so the result is bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 2^num_qubits`.
    #[must_use]
    pub fn expectation(&self, state: &[Complex64]) -> f64 {
        let dim = match 1usize.checked_shl(self.num_qubits as u32) {
            Some(d) => d,
            None => panic!("dimension 2^{} overflows usize", self.num_qubits),
        };
        assert_eq!(state.len(), dim, "state length must be 2^n");
        let per_cluster: Vec<f64> = par::map_slice(&self.clusters, |c| c.expectation(state));
        per_cluster.into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    fn random_state(n: usize, seed: u64) -> Vec<Complex64> {
        let mut s = seed | 1;
        let mut next = || (xorshift(&mut s) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let amps: Vec<Complex64> = (0..1usize << n)
            .map(|_| Complex64::new(next(), next()))
            .collect();
        let norm = amps.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        amps.into_iter().map(|z| z / norm).collect()
    }

    fn random_sum(n: usize, terms: usize, seed: u64) -> WeightedPauliSum {
        let mut s = seed | 1;
        let mut h = WeightedPauliSum::new(n);
        for k in 0..terms {
            let x = xorshift(&mut s) & ((1 << n) - 1);
            let z = xorshift(&mut s) & ((1 << n) - 1);
            h.push(
                0.1 * (k as f64 + 1.0) * if k % 2 == 0 { 1.0 } else { -1.0 },
                PauliString::from_symplectic(n, x, z),
            );
        }
        h
    }

    /// Dense application of one Clifford gate to a state.
    fn apply_op_dense(op: CliffordOp, v: &[Complex64]) -> Vec<Complex64> {
        let dim = v.len();
        let mut out = vec![Complex64::ZERO; dim];
        for b in 0..dim {
            match op {
                CliffordOp::H(q) => {
                    let s = std::f64::consts::FRAC_1_SQRT_2;
                    let b0 = b & !(1usize << q);
                    let b1 = b | (1usize << q);
                    out[b] = if (b >> q) & 1 == 0 {
                        (v[b0] + v[b1]) * s
                    } else {
                        (v[b0] - v[b1]) * s
                    };
                }
                CliffordOp::S(q) => {
                    out[b] = if (b >> q) & 1 == 1 {
                        Complex64::new(-v[b].im, v[b].re)
                    } else {
                        v[b]
                    };
                }
                CliffordOp::Sdg(q) => {
                    out[b] = if (b >> q) & 1 == 1 {
                        Complex64::new(v[b].im, -v[b].re)
                    } else {
                        v[b]
                    };
                }
                CliffordOp::Cnot { control, target } => {
                    let src = b ^ (((b >> control) & 1) << target);
                    out[b] = v[src];
                }
                CliffordOp::Cz(a, c) => {
                    out[b] = if (b >> a) & 1 == 1 && (b >> c) & 1 == 1 {
                        -v[b]
                    } else {
                        v[b]
                    };
                }
            }
        }
        out
    }

    /// Dense application of a bare Pauli string (by symplectic masks).
    fn apply_pauli_dense(n: usize, x: u64, z: u64, v: &[Complex64]) -> Vec<Complex64> {
        let p = PauliString::from_symplectic(n, x, z);
        let mut out = vec![Complex64::ZERO; v.len()];
        for b in 0..v.len() as u64 {
            let (flip, phase) = p.apply_to_basis_state(b);
            out[flip as usize] += v[b as usize] * phase;
        }
        out
    }

    /// Every conjugation rule, exhaustively on 2 qubits: `U·P·v` must equal
    /// `sign·P'·(U·v)` for all 16 Paulis and a dense random state.
    #[test]
    fn conjugation_rules_match_dense_references() {
        let v = random_state(2, 0xC0FFEE);
        let ops = [
            CliffordOp::H(0),
            CliffordOp::H(1),
            CliffordOp::S(0),
            CliffordOp::S(1),
            CliffordOp::Sdg(0),
            CliffordOp::Sdg(1),
            CliffordOp::Cnot {
                control: 0,
                target: 1,
            },
            CliffordOp::Cnot {
                control: 1,
                target: 0,
            },
            CliffordOp::Cz(0, 1),
        ];
        for op in ops {
            for x in 0u64..4 {
                for z in 0u64..4 {
                    let (x2, z2, neg) = op.conjugate(x, z);
                    let lhs = apply_op_dense(op, &apply_pauli_dense(2, x, z, &v));
                    let sign = if neg { -1.0 } else { 1.0 };
                    let rhs: Vec<Complex64> = apply_pauli_dense(2, x2, z2, &apply_op_dense(op, &v))
                        .into_iter()
                        .map(|a| a * sign)
                        .collect();
                    for (a, b) in lhs.iter().zip(&rhs) {
                        assert!(
                            a.approx_eq(*b, 1e-12),
                            "{op:?} on (x={x},z={z}): {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// Conjugating twice through S then S† (and H twice) round-trips.
    #[test]
    fn inverse_round_trips() {
        for op in [
            CliffordOp::H(2),
            CliffordOp::S(1),
            CliffordOp::Sdg(0),
            CliffordOp::Cnot {
                control: 0,
                target: 2,
            },
            CliffordOp::Cz(1, 2),
        ] {
            for x in 0u64..8 {
                for z in 0u64..8 {
                    let (x1, z1, n1) = op.conjugate(x, z);
                    let (x2, z2, n2) = op.inverse().conjugate(x1, z1);
                    assert_eq!((x2, z2, n1 ^ n2), (x, z, false), "{op:?}");
                }
            }
        }
    }

    /// The frame really diagonalizes: dense check `U·P·v = sign·Z_{z'}·U·v`
    /// for hand-picked non-qubit-wise-commuting clusters.
    #[test]
    fn frame_diagonalizes_general_commuting_sets() {
        let cases: Vec<Vec<&str>> = vec![
            vec!["XX", "ZZ", "YY"],
            vec!["XX", "YZ"],
            vec!["XZ", "ZX", "YY"],
            vec!["XXXX", "ZZZZ", "YYII"],
            vec!["ZZI", "IZZ", "XXX"],
            vec!["III", "ZIZ"],
            vec!["YYI", "IYY", "XZX"],
        ];
        for case in cases {
            let strings: Vec<PauliString> = case.iter().map(|s| s.parse().unwrap()).collect();
            let n = strings[0].num_qubits();
            let frame = DiagonalFrame::for_commuting(n, &strings).unwrap();
            let v = random_state(n, 0xDECAF ^ n as u64);
            let uv = frame
                .ops()
                .iter()
                .fold(v.clone(), |acc, &op| apply_op_dense(op, &acc));
            for p in &strings {
                let (z, sign) = frame.diagonalize(p).expect("member must diagonalize");
                let lhs = frame.ops().iter().fold(
                    apply_pauli_dense(n, p.x_mask(), p.z_mask(), &v),
                    |acc, &op| apply_op_dense(op, &acc),
                );
                let rhs: Vec<Complex64> = apply_pauli_dense(n, 0, z, &uv)
                    .into_iter()
                    .map(|a| a * sign)
                    .collect();
                for (a, b) in lhs.iter().zip(&rhs) {
                    assert!(a.approx_eq(*b, 1e-12), "{case:?} member {p}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn frame_rejects_anticommuting_pairs() {
        let strings: Vec<PauliString> = vec!["XI".parse().unwrap(), "ZI".parse().unwrap()];
        assert_eq!(
            DiagonalFrame::for_commuting(2, &strings),
            Err(ClusterError::NonCommuting(0, 1))
        );
    }

    /// Frame op lists are staged CNOT → diagonal → H (the fused evaluator
    /// and the compiler pass both rely on this shape).
    #[test]
    fn frame_ops_are_staged() {
        let mut seed = 0xFEED_BEEF;
        for trial in 0..20 {
            let sum = random_sum(5, 10, xorshift(&mut seed) + trial);
            let clustered = ClusteredSum::build(&sum);
            for c in &clustered.clusters {
                let mut stage = 0u8;
                for op in c.frame.ops() {
                    let s = match op {
                        CliffordOp::Cnot { .. } => 0,
                        CliffordOp::S(_) | CliffordOp::Sdg(_) | CliffordOp::Cz(..) => 1,
                        CliffordOp::H(_) => 2,
                    };
                    assert!(s >= stage, "ops not staged: {:?}", c.frame.ops());
                    stage = s;
                }
            }
        }
    }

    /// Clustered expectation agrees with the per-term evaluator on random
    /// dense sums (whatever mix of fused and fallback clusters results).
    #[test]
    fn clustered_expectation_matches_per_term_on_random_sums() {
        let mut seed = 0xAB1E;
        for n in 3..=6 {
            for trial in 0..8 {
                let sum = random_sum(n, 4 + 3 * trial as usize, xorshift(&mut seed) + trial);
                let state = random_state(n, xorshift(&mut seed));
                let reference = sum.expectation_per_term(&state);
                let clustered = ClusteredSum::build(&sum).expectation(&state);
                assert!(
                    (reference - clustered).abs() < 1e-10,
                    "n={n} trial={trial}: {reference} vs {clustered}"
                );
            }
        }
    }

    /// A fully commuting set lands in one cluster and the fused path is
    /// exercised (rank > 0, CNOTs present).
    #[test]
    fn commuting_set_forms_one_fused_cluster() {
        let mut h = WeightedPauliSum::new(3);
        for (w, s) in [(0.9, "XXI"), (0.7, "ZZI"), (-0.5, "YYI"), (0.3, "IIZ")] {
            h.push(w, s.parse().unwrap());
        }
        let clustered = ClusteredSum::build(&h);
        assert_eq!(clustered.num_clusters(), 1);
        let stats = clustered.stats();
        assert_eq!(stats.terms, 4);
        assert_eq!(stats.fused, 1);
        assert!(stats.clifford_ops > 0);
        assert!(stats.clifford_depth > 0);

        let state = random_state(3, 0x5EED);
        let reference = h.expectation_per_term(&state);
        assert!((clustered.expectation(&state) - reference).abs() < 1e-12);
    }

    /// Pure-Z sums need no Clifford ops at all: one cluster, zero gates.
    #[test]
    fn diagonal_sum_needs_no_clifford() {
        let mut h = WeightedPauliSum::new(4);
        for (w, s) in [(1.0, "ZZII"), (0.5, "IZZI"), (-0.25, "ZIIZ")] {
            h.push(w, s.parse().unwrap());
        }
        let clustered = ClusteredSum::build(&h);
        let stats = clustered.stats();
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.clifford_ops, 0);
        let state = random_state(4, 0x7777);
        assert!((clustered.expectation(&state) - h.expectation_per_term(&state)).abs() < 1e-12);
    }

    /// Identity terms ride along as constant offsets.
    #[test]
    fn identity_terms_contribute_their_weight() {
        let mut h = WeightedPauliSum::new(2);
        h.push(-3.25, PauliString::identity(2));
        h.push(0.5, "XY".parse().unwrap());
        let state = random_state(2, 0x1234);
        let clustered = ClusteredSum::build(&h);
        assert!((clustered.expectation(&state) - h.expectation_per_term(&state)).abs() < 1e-12);
    }

    /// Bit-identical across thread counts: the cluster grid and in-cluster
    /// fold order never depend on the worker count.
    #[test]
    fn clustered_expectation_bit_identical_across_threads() {
        let sum = random_sum(8, 24, 0xFACE);
        let state = random_state(8, 0xB00C);
        let clustered = ClusteredSum::build(&sum);
        let e1 = par::with_threads(1, || clustered.expectation(&state));
        let e2 = par::with_threads(2, || clustered.expectation(&state));
        let e4 = par::with_threads(4, || clustered.expectation(&state));
        assert_eq!(e1.to_bits(), e2.to_bits());
        assert_eq!(e1.to_bits(), e4.to_bits());
    }

    /// The packed graph equals the pairwise `commutes_with` graph on random
    /// sums, from one term to several 64-bit words per row.
    #[test]
    fn commutation_graph_matches_pairwise_commutes_with() {
        let mut seed = 0x6EA9;
        for (n, terms) in [(1, 1), (1, 5), (3, 40), (6, 64), (8, 65), (10, 200)] {
            let sum = random_sum(n, terms, xorshift(&mut seed));
            let mut oracle = vec![vec![0u64; terms.div_ceil(64)]; terms];
            for i in 0..terms {
                for j in 0..terms {
                    if sum[i].1.commutes_with(&sum[j].1) {
                        oracle[i][j / 64] |= 1u64 << (j % 64);
                    }
                }
            }
            assert_eq!(commutation_graph(&sum), oracle, "n={n} terms={terms}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The Walsh–Hadamard readout matches the per-member readout within
        /// 1e-12·Σ|w| on random commuting clusters: random Z strings
        /// (identity and repeats included) conjugated through one random
        /// H/S/S†/CNOT/CZ circuit, read from the rotated state.
        #[test]
        fn walsh_hadamard_readout_matches_per_member(
            n in 1usize..9,
            state_seed in 1u64..u64::MAX,
            gates in proptest::collection::vec((0u8..5, 0u64..u64::MAX), 0..40),
            zs in proptest::collection::vec((0u64..u64::MAX, -2.0f64..2.0), 1..120),
        ) {
            let full = (1u64 << n) - 1;
            let ops: Vec<CliffordOp> = gates
                .iter()
                .map(|&(kind, r)| {
                    let a = (r % n as u64) as u8;
                    let b = ((r >> 8) % n as u64) as u8;
                    match kind {
                        1 => CliffordOp::S(a),
                        2 => CliffordOp::Sdg(a),
                        3 if a != b => CliffordOp::Cnot { control: a, target: b },
                        4 if a != b => CliffordOp::Cz(a, b),
                        _ => CliffordOp::H(a),
                    }
                })
                .collect();
            let members: Vec<(f64, PauliString)> = zs
                .iter()
                .map(|&(zr, w)| {
                    let (x, z) = ops.iter().fold((0, zr & full), |(x, z), op| {
                        let (x, z, _) = op.conjugate(x, z);
                        (x, z)
                    });
                    (w, PauliString::from_symplectic(n, x, z))
                })
                .collect();
            let strings: Vec<PauliString> = members.iter().map(|&(_, p)| p).collect();
            let frame = DiagonalFrame::for_commuting(n, &strings).expect("conjugated Z strings commute");
            let fused = FusedEval::build(n, &frame, &members).expect("frames are staged");
            let buf = fused.rotate(&random_state(n, state_seed));
            let transform = fused.readout_by_transform(&buf);
            let per_member = fused.readout_per_member(&buf);
            let scale: f64 = members.iter().map(|&(w, _)| w.abs()).sum();
            proptest::prop_assert!(
                (transform - per_member).abs() <= 1e-12 * scale,
                "n={} members={}: transform {} vs per-member {}",
                n, members.len(), transform, per_member
            );
        }
    }

    /// `expectation_clustered` on the sum itself is the same one-call API.
    #[test]
    fn sum_level_entry_point_agrees() {
        let sum = random_sum(6, 12, 0xEE);
        let state = random_state(6, 0xFF);
        assert!(
            (sum.expectation_clustered(&state) - sum.expectation_per_term(&state)).abs() < 1e-10
        );
    }
}
