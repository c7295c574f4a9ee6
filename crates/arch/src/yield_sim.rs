//! Fabrication-yield Monte Carlo under frequency collisions (Fig 11).
//!
//! Fixed-frequency transmons with cross-resonance gates fail when fabricated
//! frequencies land on (or near) resonance conditions between coupled qubits
//! or their spectators. Following the methodology of the paper's reference
//! \[56\] (Li, Ding, Xie, ASPLOS'20) and the IBM collision taxonomy
//! Brink et al. (IEDM'18):
//!
//! 1. allocate target frequencies on the coupling graph (a deterministic
//!    greedy margin-maximizing pass over a small candidate ladder);
//! 2. sample fabricated frequencies `f ~ N(f_target, σ²)` where σ is the
//!    *fabrication precision* on the x-axis of Fig 11;
//! 3. a sample is a working chip iff no collision condition fires; yield is
//!    the fraction of working chips.
//!
//! Sparser graphs expose fewer condition instances, which is exactly why the
//! X-Tree's N−1 edges beat the grid's ~2N.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::topology::Topology;
use crate::ziggurat::Ziggurat;

/// Version of the normal sampler behind [`simulate_yield`]. Every chunk's
/// fabricated frequencies are drawn by it, so a [`YieldCheckpoint`] taken
/// under another version belongs to another stream and must not resume.
pub const NORMAL_SAMPLER: &str = "zig1";

/// Thresholds (GHz) of the frequency-collision conditions.
///
/// Conditions for a coupled control/target pair `(j, k)` with transmon
/// anharmonicity `α < 0`, plus spectator conditions for each additional
/// neighbor `m` of the control:
///
/// | # | condition | default threshold |
/// |---|-----------|-------------------|
/// | 1 | `f_j = f_k` | 17 MHz |
/// | 2 | `f_j = f_k − α/2` | 4 MHz |
/// | 3 | `f_j = f_k − α` | 25 MHz |
/// | 4 | CR band: `0 < f_j − f_k < −α` must hold in at least one direction | — |
/// | 5 | `f_k = f_m` | 17 MHz |
/// | 6 | `f_k = f_m − α/2` | 4 MHz |
/// | 7 | `2f_j + α = f_k + f_m` | 17 MHz |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionModel {
    /// Transmon anharmonicity α (GHz, negative).
    pub anharmonicity: f64,
    /// Threshold for conditions 1 and 5 (GHz).
    pub degeneracy_threshold: f64,
    /// Threshold for conditions 2 and 6 (GHz).
    pub half_anharmonicity_threshold: f64,
    /// Threshold for condition 3 (GHz).
    pub anharmonicity_threshold: f64,
    /// Threshold for condition 7 (GHz).
    pub two_photon_threshold: f64,
    /// Whether to enforce the CR-band condition 4.
    pub enforce_cr_band: bool,
}

impl Default for CollisionModel {
    fn default() -> Self {
        CollisionModel {
            anharmonicity: -0.34,
            degeneracy_threshold: 0.017,
            half_anharmonicity_threshold: 0.004,
            anharmonicity_threshold: 0.025,
            two_photon_threshold: 0.017,
            enforce_cr_band: false,
        }
    }
}

impl CollisionModel {
    /// Counts collision conditions violated by fabricated frequencies `f`
    /// on the given topology.
    pub fn count_collisions(&self, topology: &Topology, f: &[f64]) -> usize {
        let a = self.anharmonicity;
        let mut collisions = 0;

        for &(x, y) in topology.edges() {
            // Partially-allocated registers (NaN) are skipped — used by the
            // incremental allocator.
            if f[x].is_nan() || f[y].is_nan() {
                continue;
            }
            // Pairwise, direction-independent conditions 1–3 (checked with
            // the higher-frequency qubit as control).
            let (j, k) = if f[x] >= f[y] { (x, y) } else { (y, x) };
            if (f[j] - f[k]).abs() < self.degeneracy_threshold {
                collisions += 1;
            }
            if (f[j] - f[k] + a / 2.0).abs() < self.half_anharmonicity_threshold {
                collisions += 1;
            }
            if (f[j] - f[k] + a).abs() < self.anharmonicity_threshold {
                collisions += 1;
            }
            // Condition 4: the CR gate needs the target inside the
            // control's straddle band in at least one direction.
            if self.enforce_cr_band {
                let band = |c: usize, t: usize| f[c] - f[t] > 0.0 && f[c] - f[t] < -a;
                if !band(j, k) && !band(k, j) {
                    collisions += 1;
                }
            }
            // Spectator conditions 5–7: m is another neighbor of the
            // control j.
            for &m in topology.neighbors(j) {
                if m == k || f[m].is_nan() {
                    continue;
                }
                if (f[k] - f[m]).abs() < self.degeneracy_threshold {
                    collisions += 1;
                }
                if (f[k] - f[m] + a / 2.0).abs() < self.half_anharmonicity_threshold {
                    collisions += 1;
                }
                if (2.0 * f[j] + a - f[k] - f[m]).abs() < self.two_photon_threshold {
                    collisions += 1;
                }
            }
        }
        collisions
    }

    /// Whether any collision condition fires on fabricated frequencies `f`:
    /// `count_collisions(topology, f) > 0`, returning at the first condition
    /// that fires. A chip works only if none does, and at the dispersions
    /// of Fig 11 most chips fail on an early edge, so the Monte Carlo tests
    /// with this instead of counting. Every frequency must be allocated:
    /// there is no NaN skip (see [`count_collisions`](Self::count_collisions)).
    pub fn collides(&self, topology: &Topology, f: &[f64]) -> bool {
        let a = self.anharmonicity;
        topology.edges().iter().any(|&(x, y)| {
            let (j, k) = if f[x] >= f[y] { (x, y) } else { (y, x) };
            // d ≥ 0: the higher-frequency qubit is the control.
            let d = f[j] - f[k];
            if d < self.degeneracy_threshold
                || (d + a / 2.0).abs() < self.half_anharmonicity_threshold
                || (d + a).abs() < self.anharmonicity_threshold
                // Condition 4: with j above k only the j → k band can hold.
                || (self.enforce_cr_band && !(d > 0.0 && d < -a))
            {
                return true;
            }
            topology.neighbors(j).iter().any(|&m| {
                m != k
                    && ((f[k] - f[m]).abs() < self.degeneracy_threshold
                        || (f[k] - f[m] + a / 2.0).abs() < self.half_anharmonicity_threshold
                        || (2.0 * f[j] + a - f[k] - f[m]).abs() < self.two_photon_threshold)
            })
        })
    }
}

/// Deterministic greedy frequency allocation: BFS order over the graph,
/// each qubit choosing from a 5-step candidate ladder the frequency that
/// maximizes its collision margin against already-allocated neighbors and
/// two-hop neighbors.
pub fn allocate_frequencies(topology: &Topology, model: &CollisionModel) -> Vec<f64> {
    let n = topology.num_qubits();
    let base = 5.0;
    // A ladder step that keeps every integer combination of steps away from
    // the collision lines at 0, |α|/2 and |α| (for α = -0.34: multiples of
    // 0.075 stay ≥ 20 MHz clear of 0.17 and ≥ 40 MHz clear of 0.34).
    let step = -model.anharmonicity * 0.075 / 0.34;
    let candidates: Vec<f64> = (0..5).map(|k| base + step * k as f64).collect();
    let mut freq = vec![f64::NAN; n];

    // BFS order from qubit 0 (fall back to unvisited for disconnected).
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start] = true;
        while let Some(q) = queue.pop_front() {
            order.push(q);
            for &nb in topology.neighbors(q) {
                if !seen[nb] {
                    seen[nb] = true;
                    queue.push_back(nb);
                }
            }
        }
    }

    let margin = |fq: f64, other: f64, model: &CollisionModel| -> f64 {
        let a = model.anharmonicity;
        let d = (fq - other).abs();
        // Distance to the nearest collision line.
        [d, (d + a / 2.0).abs(), (d + a).abs()]
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    };

    for &q in &order {
        // Primary criterion: fewest collisions with the partial assignment
        // (count_collisions skips NaN entries). Tie-break: largest margin
        // against allocated one- and two-hop neighbors.
        let mut best: Option<(usize, f64, f64)> = None;
        for &cand in &candidates {
            freq[q] = cand;
            let collisions = model.count_collisions(topology, &freq);
            let mut m = f64::INFINITY;
            for &nb in topology.neighbors(q) {
                if !freq[nb].is_nan() {
                    m = m.min(margin(cand, freq[nb], model));
                    for &nb2 in topology.neighbors(nb) {
                        if nb2 != q && !freq[nb2].is_nan() {
                            m = m.min(margin(cand, freq[nb2], model));
                        }
                    }
                }
            }
            let better = match best {
                None => true,
                Some((bc, bm, _)) => collisions < bc || (collisions == bc && m > bm),
            };
            if better {
                best = Some((collisions, m, cand));
            }
        }
        // `candidates` is a fixed non-empty ladder, so `best` is always set.
        let Some((_, _, chosen)) = best else {
            unreachable!("non-empty candidate ladder")
        };
        freq[q] = chosen;
    }

    // Min-conflict repair sweeps: the one-pass greedy can leave a few
    // spectator collisions on dense graphs (the grid's degree-4 ancillas);
    // re-optimize each qubit against the full assignment until fixed point.
    for _ in 0..8 {
        let before = model.count_collisions(topology, &freq);
        if before == 0 {
            break;
        }
        for q in 0..n {
            let mut best = (model.count_collisions(topology, &freq), freq[q]);
            let current = freq[q];
            for &cand in &candidates {
                if cand == current {
                    continue;
                }
                freq[q] = cand;
                let c = model.count_collisions(topology, &freq);
                if c < best.0 {
                    best = (c, cand);
                }
            }
            freq[q] = best.1;
        }
        if model.count_collisions(topology, &freq) == before {
            break; // fixed point
        }
    }
    freq
}

/// Result of a yield simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldEstimate {
    /// Fraction of collision-free fabricated chips, in `[0, 1]`.
    pub yield_rate: f64,
    /// Monte-Carlo samples drawn.
    pub samples: usize,
}

/// Samples per independently-seeded Monte-Carlo chunk. Fixed — never
/// derived from the thread count — so the RNG stream assigned to each
/// sample is identical at every thread count.
const YIELD_CHUNK: usize = 64;

/// Chunks processed between two budget polls. The wave boundary is the
/// checkpoint granularity: an interrupted run records how many whole chunks
/// are tallied and resumes at the next one.
const YIELD_WAVE: usize = 8;

/// A yield Monte Carlo frozen at a chunk-wave boundary. Chunks
/// `[0, next_chunk)` are folded into the integer tallies; resuming re-runs
/// nothing and re-seeds chunk RNGs from their absolute indices, so the
/// final estimate is bit-identical to an uninterrupted run at any thread
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YieldCheckpoint {
    /// Total samples the interrupted run was asked for. Resuming must use
    /// the same count — the chunk layout depends on it.
    pub samples: usize,
    /// First chunk index not yet tallied.
    pub next_chunk: usize,
    /// Collision-free chips among the tallied chunks.
    pub good: usize,
}

/// Outcome of a budget-aware yield simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum YieldRun {
    /// All samples were drawn.
    Done(YieldEstimate),
    /// The budget expired; resume later from the checkpoint.
    Interrupted(Box<YieldCheckpoint>),
}

/// Monte-Carlo yield of a topology at fabrication precision `sigma` (GHz).
///
/// Deterministic for a fixed `seed` *at any thread count*: samples are
/// grouped into fixed `YIELD_CHUNK`-sized chunks, each with its own RNG
/// seeded from `seed` and the chunk index, and the per-chunk tallies are
/// integers, so the reduction is exact regardless of scheduling. The
/// normal variates come from a 256-layer ziggurat ([`NORMAL_SAMPLER`]).
///
/// # Panics
///
/// Panics if `sigma` is negative or `samples` is zero.
pub fn simulate_yield(
    topology: &Topology,
    model: &CollisionModel,
    sigma: f64,
    samples: usize,
    seed: u64,
) -> YieldEstimate {
    match simulate_yield_resumable(
        topology,
        model,
        sigma,
        samples,
        seed,
        None,
        &par::Budget::unlimited(),
    ) {
        YieldRun::Done(estimate) => estimate,
        YieldRun::Interrupted(_) => unreachable!("unlimited budget cannot expire"),
    }
}

/// Budget-aware [`simulate_yield`]: processes chunks in waves of
/// `YIELD_WAVE`, polling `budget` once per wave, and returns
/// [`YieldRun::Interrupted`] with the integer tallies when it expires.
/// Resuming continues at the next chunk; because every chunk's RNG is
/// seeded from its absolute index (counter mode) and the tallies are
/// integers, the resumed estimate equals the uninterrupted one bit-for-bit
/// at any thread count.
///
/// # Panics
///
/// Panics if `sigma` is negative, `samples` is zero, or the checkpoint was
/// taken for a different `samples` count (the chunk layout depends on it).
pub fn simulate_yield_resumable(
    topology: &Topology,
    model: &CollisionModel,
    sigma: f64,
    samples: usize,
    seed: u64,
    resume: Option<YieldCheckpoint>,
    budget: &par::Budget,
) -> YieldRun {
    let zig = Ziggurat::get();
    run_chunks(
        topology,
        model,
        sigma,
        samples,
        seed,
        resume,
        budget,
        |rng| zig.sample(rng),
    )
}

/// The chunked Monte Carlo behind [`simulate_yield_resumable`], drawing its
/// standard normal variates from `normal`.
#[allow(clippy::too_many_arguments)]
fn run_chunks(
    topology: &Topology,
    model: &CollisionModel,
    sigma: f64,
    samples: usize,
    seed: u64,
    resume: Option<YieldCheckpoint>,
    budget: &par::Budget,
    normal: impl Fn(&mut StdRng) -> f64 + Sync,
) -> YieldRun {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    assert!(samples > 0, "at least one sample required");
    let targets = allocate_frequencies(topology, model);
    let n_chunks = samples.div_ceil(YIELD_CHUNK);
    let (start_chunk, mut good) = match resume {
        Some(ck) => {
            assert!(
                ck.samples == samples,
                "checkpoint was taken for {} samples, not {samples}",
                ck.samples
            );
            assert!(
                ck.next_chunk <= n_chunks,
                "checkpoint chunk {} exceeds chunk count {n_chunks}",
                ck.next_chunk
            );
            (ck.next_chunk, ck.good)
        }
        None => (0, 0),
    };

    let mut wave_start = start_chunk;
    while wave_start < n_chunks {
        if !budget.tick() {
            obs::event!(
                "arch.yield.interrupted",
                chunk = wave_start,
                total_chunks = n_chunks
            );
            return YieldRun::Interrupted(Box::new(YieldCheckpoint {
                samples,
                next_chunk: wave_start,
                good,
            }));
        }
        let wave_len = YIELD_WAVE.min(n_chunks - wave_start);
        let tallies = par::map_indexed(wave_len, |i| {
            let mut good = 0usize;
            for_each_chip(
                &targets,
                sigma,
                samples,
                seed,
                wave_start + i,
                &normal,
                |chip| {
                    if !model.collides(topology, chip) {
                        good += 1;
                    }
                },
            );
            good
        });
        good += tallies.into_iter().sum::<usize>();
        wave_start += wave_len;
    }
    YieldRun::Done(YieldEstimate {
        yield_rate: good as f64 / samples as f64,
        samples,
    })
}

/// Calls `visit` on each fabricated chip of Monte-Carlo chunk `chunk`, in
/// draw order: the chunk's RNG is seeded from `seed` and the chunk's
/// absolute index alone (counter mode), and every chip draws one variate
/// per qubit, `f_q = target_q + σ·normal`.
fn for_each_chip(
    targets: &[f64],
    sigma: f64,
    samples: usize,
    seed: u64,
    chunk: usize,
    normal: impl Fn(&mut StdRng) -> f64,
    mut visit: impl FnMut(&[f64]),
) {
    let chunk_samples = YIELD_CHUNK.min(samples - chunk * YIELD_CHUNK);
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_add((chunk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let mut fabricated = vec![0.0f64; targets.len()];
    for _ in 0..chunk_samples {
        for (f, &t) in fabricated.iter_mut().zip(targets) {
            *f = t + sigma * normal(&mut rng);
        }
        visit(&fabricated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The sampler the ziggurat replaced, kept as its oracle: Box–Muller,
    /// cosine half only.
    fn box_muller(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// [`simulate_yield`] on the Box–Muller stream.
    fn oracle(t: &Topology, m: &CollisionModel, sigma: f64, n: usize, seed: u64) -> YieldEstimate {
        let budget = par::Budget::unlimited();
        match run_chunks(t, m, sigma, n, seed, None, &budget, box_muller) {
            YieldRun::Done(estimate) => estimate,
            YieldRun::Interrupted(_) => unreachable!("unlimited budget cannot expire"),
        }
    }

    /// The collision-free fraction and the mean `count_collisions` of the
    /// `n` chips the Monte Carlo draws from `normal`, counted chip by chip.
    fn drawn_chips(
        t: &Topology,
        m: &CollisionModel,
        sigma: f64,
        n: usize,
        seed: u64,
        normal: impl Fn(&mut StdRng) -> f64,
    ) -> (f64, f64) {
        let targets = allocate_frequencies(t, m);
        let (mut good, mut collisions) = (0usize, 0usize);
        for chunk in 0..n.div_ceil(YIELD_CHUNK) {
            for_each_chip(&targets, sigma, n, seed, chunk, &normal, |chip| {
                let c = m.count_collisions(t, chip);
                good += usize::from(c == 0);
                collisions += c;
            });
        }
        (good as f64 / n as f64, collisions as f64 / n as f64)
    }

    /// Mean and standard error of the mean.
    fn mean_se(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    #[test]
    fn ziggurat_yield_matches_the_box_muller_oracle_over_64_seeds() {
        let m = CollisionModel::default();
        let cases = [
            (Topology::xtree(17), 0.04),
            (Topology::xtree(17), 0.3),
            (Topology::grid17q(), 0.04),
            (Topology::grid17q(), 0.3),
        ];
        for (t, sigma) in cases {
            // Per-seed `yield_rate` and mean-collisions columns. The
            // collisions are counted on the drawn chips, whose collision-free
            // fraction must be the Monte Carlo's `yield_rate` to the bit.
            let zig_normal = |rng: &mut StdRng| Ziggurat::get().sample(rng);
            let columns = |run: &dyn Fn(u64) -> (YieldEstimate, (f64, f64))| {
                let runs: Vec<(f64, f64)> = (0..64)
                    .map(|seed| {
                        let (estimate, (rate, collisions)) = run(seed);
                        assert_eq!(estimate.yield_rate.to_bits(), rate.to_bits(), "seed {seed}");
                        (rate, collisions)
                    })
                    .collect();
                [
                    runs.iter().map(|r| r.0).collect::<Vec<_>>(),
                    runs.iter().map(|r| r.1).collect(),
                ]
            };
            let zig = columns(&|seed| {
                let chips = drawn_chips(&t, &m, sigma, 2000, seed, zig_normal);
                (simulate_yield(&t, &m, sigma, 2000, seed), chips)
            });
            let bm = columns(&|seed| {
                let chips = drawn_chips(&t, &m, sigma, 2000, seed, box_muller);
                (oracle(&t, &m, sigma, 2000, seed), chips)
            });
            let names = ["yield_rate", "mean_collisions"];
            for ((name, zig), bm) in names.iter().zip(&zig).zip(&bm) {
                let (z, z_se) = mean_se(zig);
                let (b, b_se) = mean_se(bm);
                assert!(
                    (z - b).abs() <= 3.0 * z_se.hypot(b_se),
                    "{} σ={sigma} {name}: ziggurat {z} ± {z_se} vs Box–Muller {b} ± {b_se}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn allocation_assigns_every_qubit_a_candidate() {
        let t = Topology::xtree(17);
        let model = CollisionModel::default();
        let f = allocate_frequencies(&t, &model);
        assert_eq!(f.len(), 17);
        for &x in &f {
            assert!(x.is_finite() && (5.0..=5.0 + 0.34).contains(&x));
        }
    }

    #[test]
    fn allocation_separates_neighbors() {
        let t = Topology::grid17q();
        let model = CollisionModel::default();
        let f = allocate_frequencies(&t, &model);
        for &(a, b) in t.edges() {
            assert!(
                (f[a] - f[b]).abs() > model.degeneracy_threshold,
                "neighbors {a},{b} collide at allocation time"
            );
        }
    }

    #[test]
    fn zero_dispersion_yields_one() {
        for t in [Topology::xtree(17), Topology::grid17q()] {
            let e = simulate_yield(&t, &CollisionModel::default(), 0.0, 200, 1);
            assert_eq!(e.yield_rate, 1.0, "{}", t.name());
        }
    }

    #[test]
    fn yield_decreases_with_dispersion() {
        // Below the allocation ladder's spacing, where yield falls steeply
        // with σ. At 0.02 and 0.2 GHz the grid's yield is under 0.005
        // (EXPERIMENTS.md), about 9 and 7 working chips out of 2000, so
        // that pair can tie on one seed.
        let t = Topology::grid17q();
        let m = CollisionModel::default();
        let y1 = simulate_yield(&t, &m, 0.01, 2000, 7).yield_rate;
        let y2 = simulate_yield(&t, &m, 0.04, 2000, 7).yield_rate;
        assert!(y1 > y2, "{y1} vs {y2}");
    }

    #[test]
    fn xtree_beats_grid_at_same_dispersion() {
        let m = CollisionModel::default();
        let xt = simulate_yield(&Topology::xtree(17), &m, 0.3, 4000, 11);
        let gr = simulate_yield(&Topology::grid17q(), &m, 0.3, 4000, 11);
        assert!(
            xt.yield_rate > gr.yield_rate,
            "xtree {} vs grid {}",
            xt.yield_rate,
            gr.yield_rate
        );
        let collisions = |t: &Topology| {
            let zig = |rng: &mut StdRng| Ziggurat::get().sample(rng);
            drawn_chips(t, &m, 0.3, 4000, 11, zig).1
        };
        assert!(collisions(&Topology::xtree(17)) < collisions(&Topology::grid17q()));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let t = Topology::xtree(8);
        let m = CollisionModel::default();
        let a = simulate_yield(&t, &m, 0.25, 500, 99);
        let b = simulate_yield(&t, &m, 0.25, 500, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn interrupted_yield_resumes_bit_identically_at_any_thread_count() {
        let t = Topology::xtree(8);
        let m = CollisionModel::default();
        let full = simulate_yield(&t, &m, 0.25, 1500, 99);
        for threads in [1, 4] {
            let segmented = par::with_threads(threads, || {
                let mut resume = None;
                loop {
                    // One wave per segment: the tightest interruption grain.
                    let budget = par::Budget::max_ticks(1);
                    match simulate_yield_resumable(&t, &m, 0.25, 1500, 99, resume.take(), &budget) {
                        YieldRun::Done(e) => break e,
                        YieldRun::Interrupted(ck) => resume = Some(*ck),
                    }
                }
            });
            assert_eq!(full, segmented, "threads {threads}");
        }
    }

    #[test]
    fn zero_budget_yield_interrupts_with_empty_tallies() {
        let t = Topology::xtree(8);
        let m = CollisionModel::default();
        let budget = par::Budget::max_ticks(0);
        match simulate_yield_resumable(&t, &m, 0.25, 500, 1, None, &budget) {
            YieldRun::Interrupted(ck) => {
                assert_eq!(
                    *ck,
                    YieldCheckpoint {
                        samples: 500,
                        next_chunk: 0,
                        good: 0,
                    }
                );
            }
            YieldRun::Done(_) => panic!("zero budget must interrupt immediately"),
        }
    }

    /// `yield_rate` bits of 5000 chips at seed 2026, recorded before the
    /// Monte Carlo tested chips with [`CollisionModel::collides`] instead
    /// of counting their collisions.
    #[test]
    fn yield_rate_bits_match_the_counting_monte_carlo() {
        let pins: [(Topology, [(f64, u64); 3]); 4] = [
            (
                Topology::xtree(17),
                [
                    (0.01, 0x3fc2_88ce_703a_fb7f),
                    (0.04, 0x3f8b_089a_0275_2546),
                    (0.3, 0x3faa_8587_93dd_97f6),
                ],
            ),
            (
                Topology::grid17q(),
                [
                    (0.01, 0x3fa0_e560_4189_374c),
                    (0.04, 0x3f53_a92a_3055_3261),
                    (0.3, 0x3f8b_7175_8e21_9653),
                ],
            ),
            (
                Topology::line(17),
                [
                    (0.01, 0x3fdd_4c98_5f06_f694),
                    (0.04, 0x3f99_ce07_5f6f_d220),
                    (0.3, 0x3fb9_652b_d3c3_6113),
                ],
            ),
            (
                Topology::heavy_hex(2, 7),
                [
                    (0.01, 0x3fd3_a5e3_53f7_ced9),
                    (0.04, 0x3f98_fc50_4816_f007),
                    (0.3, 0x3fb7_318f_c504_816f),
                ],
            ),
        ];
        let m = CollisionModel::default();
        for (t, cases) in &pins {
            for &(sigma, bits) in cases {
                let e = simulate_yield(t, &m, sigma, 5000, 2026);
                assert_eq!(
                    e.yield_rate.to_bits(),
                    bits,
                    "{} σ={sigma}: {} vs {}",
                    t.name(),
                    e.yield_rate,
                    f64::from_bits(bits)
                );
            }
        }
    }

    /// A connected graph on `n` qubits: a random tree (qubit `q` hangs off
    /// `parents[q] mod q`) plus the chords `chords` that are not edges yet.
    fn random_connected(n: usize, parents: &[usize], chords: &[(usize, usize)]) -> Topology {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|q| (parents[q] % q, q)).collect();
        for &(a, b) in chords {
            let (a, b) = (a % n, b % n);
            let key = (a.min(b), a.max(b));
            if a != b && !edges.iter().any(|&(x, y)| (x.min(y), x.max(y)) == key) {
                edges.push((a, b));
            }
        }
        Topology::from_edges("random", n, edges)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The early-exit test agrees with the counter on every chip the
        /// Monte Carlo draws, on five topology families, σ from 0 to 0.3,
        /// with and without the CR-band condition.
        #[test]
        fn collides_iff_the_counter_finds_a_collision(
            sigma in 0.0f64..0.3,
            seed in 0u64..u64::MAX,
            cr_band in 0u8..2,
            n in 2usize..18,
            parents in proptest::collection::vec(0usize..64, 18),
            chords in proptest::collection::vec((0usize..64, 0usize..64), 0..12),
        ) {
            let m = CollisionModel {
                enforce_cr_band: cr_band == 1,
                ..CollisionModel::default()
            };
            let families = [
                Topology::xtree(17),
                Topology::grid17q(),
                Topology::line(17),
                Topology::heavy_hex(2, 7),
                random_connected(n, &parents, &chords),
            ];
            for t in &families {
                let targets = allocate_frequencies(t, &m);
                let zig = |rng: &mut StdRng| Ziggurat::get().sample(rng);
                let mut seen = 0;
                for_each_chip(&targets, sigma, 128, seed, 0, zig, |chip| {
                    let counted = m.count_collisions(t, chip);
                    assert_eq!(m.collides(t, chip), counted > 0, "{} {chip:?}", t.name());
                    seen += 1;
                });
                proptest::prop_assert_eq!(seen, YIELD_CHUNK);
            }
        }
    }

    #[test]
    fn collision_counter_sees_engineered_degeneracy() {
        let t = Topology::line(2);
        let m = CollisionModel::default();
        assert_eq!(m.count_collisions(&t, &[5.0, 5.0]), 1); // condition 1
        assert_eq!(m.count_collisions(&t, &[5.0, 5.0 + 0.34]), 1); // condition 3
        assert_eq!(m.count_collisions(&t, &[5.0, 5.1]), 0);
        assert!(m.collides(&t, &[5.0, 5.0]));
        assert!(m.collides(&t, &[5.0, 5.0 + 0.34]));
        assert!(!m.collides(&t, &[5.0, 5.1]));
    }

    #[test]
    fn spectator_collision_detected() {
        // Path 0-1-2 with the outer qubits degenerate: when 1 is the
        // control of one edge, its spectator matches the target.
        let t = Topology::line(3);
        let m = CollisionModel::default();
        let c = m.count_collisions(&t, &[5.0, 5.2, 5.0]);
        assert!(c >= 1, "degenerate spectators must collide");
    }
}
