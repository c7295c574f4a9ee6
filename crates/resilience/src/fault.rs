//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seedable oracle the pipeline consults at named
//! injection points: "should this site fail on this visit?". Each draw is
//! a pure function of `(seed, site, visit-counter)` — never of wall-clock
//! time or global RNG state — so a plan replays the identical fault
//! sequence for the same seed and query order, which is what makes chaos
//! runs debuggable and the determinism property testable.

use std::fmt;

/// A named injection point in the pipeline, one per failure mode the
/// recovery policies must handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// SCF iteration budget slashed so DIIS cannot converge.
    ScfConvergence,
    /// SCF Fock update poisoned with NaN, tripping the non-finite guard.
    ScfEnergy,
    /// Molecular geometry collapsed to a near-coincident atom pair.
    Geometry,
    /// Coupling graph corrupted with a chord edge, so it is no longer a
    /// tree (MtR's precondition).
    CouplingGraph,
    /// VQE starting point poisoned with NaN, tripping the optimizer's
    /// non-finite objective guard.
    VqeObjective,
    /// Optimizer iteration budget slashed so the first attempt stalls.
    OptimizerStall,
    /// Serve result-cache seal is corrupted mid-write (torn write, disk
    /// fault). The cache is an accelerator, not a source of truth: the
    /// daemon must detect the bad seal on the next read (CRC), quarantine
    /// the entry aside, and recompute — never serve the corrupt bytes.
    CacheWrite,
    /// Serve accept path forced to shed an admissible request (fd
    /// pressure, accept storm). The daemon must answer with a typed shed
    /// response, never a silent drop or a wedged connection.
    Accept,
}

impl FaultKind {
    /// Every injection point, in a stable order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::ScfConvergence,
        FaultKind::ScfEnergy,
        FaultKind::Geometry,
        FaultKind::CouplingGraph,
        FaultKind::VqeObjective,
        FaultKind::OptimizerStall,
        FaultKind::CacheWrite,
        FaultKind::Accept,
    ];

    /// The dotted site name used in obs events and reports.
    pub fn site(self) -> &'static str {
        match self {
            FaultKind::ScfConvergence => "scf.convergence",
            FaultKind::ScfEnergy => "scf.energy",
            FaultKind::Geometry => "chem.geometry",
            FaultKind::CouplingGraph => "compile.coupling_graph",
            FaultKind::VqeObjective => "vqe.objective",
            FaultKind::OptimizerStall => "vqe.optimizer_stall",
            FaultKind::CacheWrite => "serve.cache_write",
            FaultKind::Accept => "serve.accept",
        }
    }

    /// The recovery policy class responsible for this fault:
    /// `"scf_retry"`, `"compiler_fallback"`, `"vqe_restart"`,
    /// `"cache_quarantine"`, or `"admission_shed"`.
    pub fn policy_class(self) -> &'static str {
        match self {
            FaultKind::ScfConvergence | FaultKind::ScfEnergy | FaultKind::Geometry => "scf_retry",
            FaultKind::CouplingGraph => "compiler_fallback",
            FaultKind::VqeObjective | FaultKind::OptimizerStall => "vqe_restart",
            FaultKind::CacheWrite => "cache_quarantine",
            FaultKind::Accept => "admission_shed",
        }
    }

    /// The site's number in the draw key. Frozen per site, and a retired
    /// site's number is never reused, so a seed injects the same faults
    /// at every remaining site across releases. Retired numbers: 6 was
    /// `supervisor.lease_write`, and 9, 10 and 11 were the TCP
    /// transport's `net.frame_write`, `net.accept` and `net.partition`.
    fn draw_key(self) -> u64 {
        match self {
            FaultKind::ScfConvergence => 0,
            FaultKind::ScfEnergy => 1,
            FaultKind::Geometry => 2,
            FaultKind::CouplingGraph => 3,
            FaultKind::VqeObjective => 4,
            FaultKind::OptimizerStall => 5,
            FaultKind::CacheWrite => 7,
            FaultKind::Accept => 8,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.site())
    }
}

/// One fault the plan decided to inject, in decision order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The injection point.
    pub kind: FaultKind,
    /// Which visit to that site fired (0-based per-site counter).
    pub visit: u64,
}

/// Number of injection sites (`FaultKind::ALL.len()`). A plan keeps one
/// visit counter per site, so draws at one site never shift another's.
///
/// ```
/// use resilience::{FaultKind, FaultPlan};
///
/// let mut a = FaultPlan::new(7, 0.5);
/// let mut b = FaultPlan::new(7, 0.5);
/// // `b` visits every other site first; `Geometry` still draws the same.
/// for kind in FaultKind::ALL.into_iter().filter(|&k| k != FaultKind::Geometry) {
///     b.should_inject(kind);
/// }
/// for _ in 0..8 {
///     assert_eq!(
///         a.should_inject(FaultKind::Geometry),
///         b.should_inject(FaultKind::Geometry)
///     );
/// }
/// ```
const SITES: usize = FaultKind::ALL.len();

/// A deterministic, seedable plan of faults to inject.
///
/// ```
/// use resilience::{FaultKind, FaultPlan};
///
/// let mut a = FaultPlan::new(42, 0.5);
/// let mut b = FaultPlan::new(42, 0.5);
/// for kind in FaultKind::ALL {
///     assert_eq!(a.should_inject(kind), b.should_inject(kind));
/// }
/// assert_eq!(a.injected(), b.injected());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    fault_rate: f64,
    visits: [u64; SITES],
    injected: Vec<InjectedFault>,
}

/// SplitMix64 finalizer: a high-quality 64-bit mix, enough to decorrelate
/// the (seed, site, visit) key without carrying RNG state. The supervisor
/// and serve crates derive their job, attempt and request seeds with it
/// too, so the whole fleet shares one notion of "decorrelate this key".
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Creates a plan. `fault_rate` is clamped to `[0, 1]`; NaN disables
    /// injection entirely.
    pub fn new(seed: u64, fault_rate: f64) -> Self {
        let rate = if fault_rate.is_nan() {
            0.0
        } else {
            fault_rate.clamp(0.0, 1.0)
        };
        FaultPlan {
            seed,
            fault_rate: rate,
            visits: [0; SITES],
            injected: Vec::new(),
        }
    }

    /// A plan that never injects (the production configuration).
    pub fn none() -> Self {
        FaultPlan::new(0, 0.0)
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The clamped per-visit injection probability.
    pub fn fault_rate(&self) -> f64 {
        self.fault_rate
    }

    /// Asks the plan whether `kind` should fail on this visit. Records and
    /// reports (via obs) every injection it orders.
    pub fn should_inject(&mut self, kind: FaultKind) -> bool {
        // The visit counter's slot is the site's position in `ALL`.
        let slot = kind as usize;
        let visit = self.visits[slot];
        self.visits[slot] += 1;
        if self.fault_rate <= 0.0 {
            return false;
        }
        // Site-keyed counter-mode draw: uniform in [0, 1) from the mixed
        // (seed, site, visit) key.
        let key = splitmix64(self.seed)
            ^ splitmix64(kind.draw_key().wrapping_add(0xA076_1D64_78BD_642F))
            ^ splitmix64(visit.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let u = (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64;
        let hit = u < self.fault_rate;
        if hit {
            self.injected.push(InjectedFault { kind, visit });
            obs::counter_add("resilience.faults_injected", 1);
            // `plan_seed` tells apart the events of plans that inject
            // concurrently (chaos trials run on parallel threads).
            obs::event!(
                "resilience.fault",
                site = kind.site(),
                visit = visit,
                policy_class = kind.policy_class(),
                plan_seed = self.seed
            );
            // Always-on flight note (with the site name even when tracing
            // is off); dumps the ring if a flight dir is armed.
            let _ = obs::flight::note_fault(kind.site(), visit);
        }
        hit
    }

    /// Every fault injected so far, in decision order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_injects() {
        let mut plan = FaultPlan::new(7, 0.0);
        for _ in 0..100 {
            for kind in FaultKind::ALL {
                assert!(!plan.should_inject(kind));
            }
        }
        assert!(plan.injected().is_empty());
    }

    #[test]
    fn full_rate_always_injects() {
        let mut plan = FaultPlan::new(7, 1.0);
        for kind in FaultKind::ALL {
            assert!(plan.should_inject(kind));
        }
        assert_eq!(plan.injected().len(), SITES);
        assert_eq!(plan.injected()[0].kind, FaultKind::ScfConvergence);
    }

    #[test]
    fn rates_are_clamped_and_nan_is_safe() {
        assert_eq!(FaultPlan::new(0, 2.5).fault_rate(), 1.0);
        assert_eq!(FaultPlan::new(0, -1.0).fault_rate(), 0.0);
        assert_eq!(FaultPlan::new(0, f64::NAN).fault_rate(), 0.0);
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = FaultPlan::new(1234, 0.3);
        let mut b = FaultPlan::new(1234, 0.3);
        for _ in 0..50 {
            for kind in FaultKind::ALL {
                assert_eq!(a.should_inject(kind), b.should_inject(kind));
            }
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn different_seeds_diverge() {
        // With 300 draws at rate 0.5 two seeds agreeing everywhere is
        // astronomically unlikely — this guards against the seed being
        // ignored in the key mix.
        let mut a = FaultPlan::new(1, 0.5);
        let mut b = FaultPlan::new(2, 0.5);
        let mut differs = false;
        for _ in 0..50 {
            for kind in FaultKind::ALL {
                if a.should_inject(kind) != b.should_inject(kind) {
                    differs = true;
                }
            }
        }
        assert!(differs);
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let mut plan = FaultPlan::new(99, 0.25);
        let mut hits = 0usize;
        let draws = 4000;
        for _ in 0..draws {
            for kind in FaultKind::ALL {
                if plan.should_inject(kind) {
                    hits += 1;
                }
            }
        }
        let observed = hits as f64 / (draws * SITES) as f64;
        assert!(
            (observed - 0.25).abs() < 0.02,
            "observed rate {observed} too far from 0.25"
        );
    }

    /// Retiring a site must not move the draws of the sites that remain:
    /// these are the visits the plans with the retired sites (key 6,
    /// `supervisor.lease_write`; keys 9–11, the TCP transport's) fired
    /// at, seed 11, rate 0.3.
    #[test]
    fn draw_keys_survive_retired_sites() {
        let hits = |kind: FaultKind| -> Vec<u64> {
            let mut plan = FaultPlan::new(11, 0.3);
            (0..48u64).filter(|_| plan.should_inject(kind)).collect()
        };
        assert_eq!(
            hits(FaultKind::Accept),
            [1, 7, 9, 21, 22, 28, 32, 36, 37, 38, 39, 42, 46]
        );
        assert_eq!(
            hits(FaultKind::CacheWrite),
            [7, 9, 10, 13, 16, 18, 19, 23, 26, 28, 31, 34, 44, 46, 47]
        );
    }

    #[test]
    fn sites_are_decorrelated() {
        // At rate 0.5 the per-site sequences must not be identical copies
        // of each other.
        let mut plan = FaultPlan::new(5, 0.5);
        let mut seq: Vec<Vec<bool>> = vec![Vec::new(); SITES];
        for _ in 0..64 {
            for kind in FaultKind::ALL {
                seq[kind as usize].push(plan.should_inject(kind));
            }
        }
        for i in 0..SITES {
            for j in (i + 1)..SITES {
                assert_ne!(seq[i], seq[j], "sites {i} and {j} correlated");
            }
        }
    }
}
