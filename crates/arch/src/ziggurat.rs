//! Standard normal variates by the Marsaglia–Tsang ziggurat (J. Stat.
//! Softw. 5(8), 2000), in the 256-layer form of Doornik (2005).
//!
//! The density `exp(−x²/2)` is covered by 256 layers of equal area `V`:
//! layer 0 is the base strip with the tail beyond `R`, and layer `i ≥ 1`
//! is the rectangle `[0, x[i]] × [f(x[i]), f(x[i+1])]`. One `u64` draw picks
//! a layer (low 8 bits) and a signed abscissa (top 52 bits). About 99 % of
//! draws fall within the width of the next, narrower layer, which lies
//! wholly under the density, and return after one multiply and one
//! compare. The rest take the wedge test against the density, or the
//! Marsaglia tail sampler beyond `R`.

use std::sync::OnceLock;

use rand::RngCore;

/// Number of layers.
const LAYERS: usize = 256;
/// Right edge of the base layer's rectangle; the tail starts here
/// (3.654152885361008796).
const R: f64 = 3.654_152_885_361_009;
/// Area of every layer under the unnormalised density `exp(−x²/2)`.
const V: f64 = 0.004_928_673_233_99;

/// The unnormalised standard normal density.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The layer edges `x[0..=LAYERS]` (`x[0] = V/f(R)` is the base strip's
/// width, `x[1] = R`, `x[LAYERS] = 0`), and the closure value `a`: the
/// recurrence's `V/x + f(x)` past its last layer, which is `f(0) = 1` when
/// `R` and `V` tile the density exactly.
fn recurrence() -> ([f64; LAYERS + 1], f64) {
    let mut x = [0.0; LAYERS + 1];
    x[0] = V / density(R);
    x[1] = R;
    for i in 2..LAYERS {
        x[i] = (-2.0 * (V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
    }
    let a = V / x[LAYERS - 1] + density(x[LAYERS - 1]);
    (x, a)
}

/// The ziggurat's layer tables, built once per process.
pub(crate) struct Ziggurat {
    /// Layer edges, widest first.
    x: [f64; LAYERS + 1],
    /// The density at each edge.
    f: [f64; LAYERS + 1],
}

impl Ziggurat {
    /// The shared tables.
    pub(crate) fn get() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let (x, _) = recurrence();
            Ziggurat {
                x,
                f: x.map(density),
            }
        })
    }

    /// One standard normal variate.
    #[inline]
    pub(crate) fn sample<G: RngCore>(&self, rng: &mut G) -> f64 {
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0xff) as usize;
            // The top 52 bits as a mantissa in [1, 2), mapped to [−1, 1).
            let u = 2.0 * f64::from_bits(0x3ff0_0000_0000_0000 | (bits >> 12)) - 3.0;
            let x = u * self.x[layer];
            if x.abs() < self.x[layer + 1] {
                return x;
            }
            if layer == 0 {
                return tail(rng, u < 0.0);
            }
            let y = self.f[layer + 1] + (self.f[layer] - self.f[layer + 1]) * open01(rng);
            if y < density(x) {
                return x;
            }
        }
    }
}

/// Uniform on the open interval (0, 1), so its logarithm is finite.
fn open01<G: RngCore>(rng: &mut G) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// A variate from the normal tail beyond `R` (Marsaglia 1964), negated
/// when `negative`.
#[cold]
fn tail<G: RngCore>(rng: &mut G, negative: bool) -> f64 {
    loop {
        let x = -open01(rng).ln() / R;
        let y = -open01(rng).ln();
        if 2.0 * y > x * x {
            return if negative { -(R + x) } else { R + x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn the_layers_close_at_the_mode() {
        let (x, a) = recurrence();
        assert!((a - 1.0).abs() < 1e-9, "closure {a}");
        assert!(x.windows(2).all(|w| w[0] > w[1]), "edges must fall");
        assert_eq!(x[LAYERS], 0.0);
        assert_eq!(Ziggurat::get().f[LAYERS], 1.0);
    }

    #[test]
    fn tail_probabilities_match_the_normal() {
        // P(|x| > t) = erfc(t/√2); t = 4 lies past R, in the tail sampler.
        let exact = [
            (1.0, 0.317_310_507_862_914_2),
            (2.0, 0.045_500_263_896_358_4),
            (3.0, 0.002_699_796_063_260_19),
            (4.0, 0.000_063_342_483_666_24),
        ];
        let n = 2_000_000usize;
        let zig = Ziggurat::get();
        let mut rng = StdRng::seed_from_u64(2024);
        let mut beyond = [0usize; 4];
        for _ in 0..n {
            let z = zig.sample(&mut rng).abs();
            for (count, &(t, _)) in beyond.iter_mut().zip(&exact) {
                *count += usize::from(z > t);
            }
        }
        for (&count, &(t, p)) in beyond.iter().zip(&exact) {
            let sd = (p * (1.0 - p) / n as f64).sqrt();
            let observed = count as f64 / n as f64;
            assert!(
                (observed - p).abs() < 4.0 * sd,
                "P(|x| > {t}): {observed} vs {p} (4σ = {})",
                4.0 * sd
            );
        }
    }

    #[test]
    fn moments_match_the_normal() {
        let n = 1_000_000usize;
        let zig = Ziggurat::get();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = zig.sample(&mut rng);
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        // Standard errors: 1/√n for the mean, √(2/n) for the variance.
        assert!(mean.abs() < 4.0 / (n as f64).sqrt(), "mean {mean}");
        assert!(
            (var - 1.0).abs() < 4.0 * (2.0 / n as f64).sqrt(),
            "var {var}"
        );
    }
}
