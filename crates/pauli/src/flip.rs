//! Amplitude pairs of a flip mask: the sweep structure shared by the
//! grouped `H|ψ⟩`, the fused ansatz preparation, and the fused adjoint
//! gradient.
//!
//! A Pauli string with X (flip) mask `x` maps `|b⟩` to a multiple of
//! `|b ⊕ x⟩`. Every string that shares `x` therefore acts on the same
//! amplitude pairs `{b, b ⊕ x}`, and a sweep that visits each pair once can
//! apply a whole group of such strings for the memory traffic of one.
//!
//! Pairs are enumerated block by block: the highest set bit `h` of `x`
//! splits the register into blocks of `2^(h+1)` amplitudes, and the partner
//! of every index in a block's lower half lies in its upper half. A chunk
//! made of whole blocks never splits a pair, so chunked parallel sweeps stay
//! race-free and bit-identical at every thread count.
//!
//! Each string also needs the sign `(−1)^|b∧z|` of its Z mask at every
//! pair. [`for_each_pair`] carries those signs for up to [`MAX_MASKS`]
//! strings as the bits of one word, updated with one XOR per pair, so the
//! sweeps need no per-string popcount.

/// The most Z masks one sweep tracks: one parity bit each in a `u64`.
/// Longer groups are swept in batches of this size.
pub const MAX_MASKS: usize = 64;

/// The chunk length of a parallel sweep over flip mask `x`:
/// [`par::DEFAULT_CHUNK`], or one whole block when a block is larger. Fixed
/// by `x` alone, never by the thread count.
pub fn chunk_len(x: u64) -> usize {
    if x == 0 {
        return par::DEFAULT_CHUNK;
    }
    let block = 2usize << (u64::BITS - 1 - x.leading_zeros());
    par::DEFAULT_CHUNK.max(block)
}

/// Calls `f(lo, parities)` for every amplitude pair of one chunk, in
/// increasing order of `lo`.
///
/// * `lo` is the chunk-local index of the pair member whose highest flip
///   bit is clear; its partner is `lo ^ x`. For `x = 0` (diagonal strings)
///   every index is visited on its own.
/// * Bit `j` of `parities` is the parity of `|(offset + lo) ∧ zs[j]|`, so
///   `(−1)^bit` is string `j`'s Z sign at the pair's lower member.
///
/// The chunk must start at `offset` and hold `len` amplitudes as cut by
/// [`chunk_len`] from a `2^n`-amplitude vector: whole blocks, with `offset`
/// a multiple of `len`.
///
/// The pairs are numbered by a counter `m` whose bits are those of `lo`
/// with bit `h` removed. Stepping `m → m+1` flips its trailing bits, which
/// changes every parity by a fixed pattern per number of trailing zeros;
/// those patterns are tabulated once per chunk, and the word is updated by
/// one XOR per pair.
///
/// # Panics
///
/// Panics if `zs.len()` exceeds [`MAX_MASKS`].
#[inline(always)]
pub fn for_each_pair(offset: usize, len: usize, x: u64, zs: &[u64], mut f: impl FnMut(usize, u64)) {
    assert!(
        zs.len() <= MAX_MASKS,
        "at most {MAX_MASKS} Z masks per sweep"
    );
    // The pair counter m maps to lo by inserting a zero at bit h.
    let (low, count) = if x == 0 {
        (usize::MAX, len)
    } else {
        let h = u64::BITS - 1 - x.leading_zeros();
        ((1usize << h) - 1, len / 2)
    };
    let expand = |m: usize| ((m & !low) << 1) | (m & low);
    let parities = |v: usize| {
        zs.iter().enumerate().fold(0u64, |acc, (j, &z)| {
            acc | (u64::from((v as u64 & z).count_ones() & 1) << j)
        })
    };
    let mut flips = [0u64; 64];
    for (t, flip) in flips
        .iter_mut()
        .enumerate()
        .take(count.trailing_zeros() as usize + 1)
    {
        *flip = parities(expand((2usize << t) - 1));
    }
    let mut p = parities(offset);
    for m in 0..count {
        f(expand(m), p);
        p ^= flips[((m + 1).trailing_zeros() & 63) as usize];
    }
}

/// `c` with its sign flipped when the low bit of `parity` is set:
/// `(−1)^parity · c`, by flipping the sign bit instead of branching.
#[inline(always)]
pub fn signed(c: f64, parity: u64) -> f64 {
    f64::from_bits(c.to_bits() ^ (parity << 63))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parity(v: u64) -> u64 {
        u64::from(v.count_ones() & 1)
    }

    #[test]
    fn pairs_cover_every_index_once_with_their_z_parities() {
        let zs = [0b1011_0110u64, 0, 0b1, 0b1111_1111, 0b1000_0000];
        for x in [0u64, 0b1, 0b110, 0b1011, 0b1000_0001] {
            let dim = 256;
            let chunk = 64.max(if x == 0 {
                1
            } else {
                2 << (63 - x.leading_zeros())
            });
            let mut seen = vec![0u32; dim];
            for offset in (0..dim).step_by(chunk) {
                let mut last = None;
                for_each_pair(offset, chunk, x, &zs, |lo, p| {
                    assert!(last.is_none_or(|l| l < lo), "pairs must come in order");
                    last = Some(lo);
                    let b = offset + lo;
                    let partner = b ^ x as usize;
                    if x != 0 {
                        assert!(b < partner, "lo must have the high flip bit clear");
                        seen[partner] += 1;
                    }
                    seen[b] += 1;
                    for (j, &z) in zs.iter().enumerate() {
                        assert_eq!(
                            (p >> j) & 1,
                            parity(b as u64 & z),
                            "x {x:#b} b {b} z {z:#b}"
                        );
                    }
                });
            }
            assert!(seen.iter().all(|&n| n == 1), "x = {x:#b}");
        }
    }

    #[test]
    fn chunks_hold_whole_blocks() {
        assert_eq!(chunk_len(0), par::DEFAULT_CHUNK);
        assert_eq!(chunk_len(0b101), par::DEFAULT_CHUNK);
        let top = 1u64 << 20;
        assert_eq!(chunk_len(top | 1), 2 * top as usize);
    }

    #[test]
    fn signed_flips_on_odd_parity_only() {
        assert_eq!(signed(0.75, 0), 0.75);
        assert_eq!(signed(0.75, 1), -0.75);
        assert_eq!(signed(-2.0, 1), 2.0);
    }
}
