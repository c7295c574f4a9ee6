//! Content-addressed, CRC-sealed result cache.
//!
//! A request's identity — molecule, basis set, bond length bits,
//! compression ratio bits, topology, plus the serve seed and fault rate
//! the result would be computed under — hashes to a 64-bit key; the key
//! names a `<key>.cache` file holding the converged result inside the
//! versioned, CRC-guarded checkpoint container. The cache is an
//! *accelerator*, never a source of truth:
//!
//! - a **hit** answers without touching SCF or VQE (the O(1) path the
//!   "millions of users" shape depends on);
//! - a **corrupt entry** (truncated, bit-flipped, torn write) fails its
//!   CRC before any field is trusted, is renamed aside to
//!   `<key>.cache.quarantined` (which `pcd report` counts as a
//!   transport artifact), and the caller recomputes;
//! - a **write** goes through the atomic temp-file + fsync + rename
//!   path, except when the [`FaultKind::CacheWrite`] injection site
//!   orders a torn write, which the next read then detects and
//!   quarantines (the end-to-end property `pcd chaos --campaign serve`
//!   asserts).
//!
//! Key hashing is a pure function of the request fields — stable across
//! runs, thread counts, and processes — pinned by a proptest.

use std::path::{Path, PathBuf};

use obs::json::JsonValue;
use resilience::{Checkpoint, FaultKind, FaultPlan};
use supervisor::{JobSpec, JobState};

use resilience::splitmix64;

/// Checkpoint kind tag for cache entries.
pub const KIND_SERVE_CACHE: &str = "serve-cache";

/// File extension for cache entries. Deliberately *not* one of the
/// extensions `pcd report` scans, so a report over a serve state dir
/// aggregates the manifest and flight dumps without parsing thousands of
/// cache entries.
pub const CACHE_EXT: &str = "cache";

/// The basis set every benchmark runs in (part of the cache identity so
/// a future multi-basis serve cannot alias entries).
const BASIS: &str = "sto-3g";

/// 64-bit content hash of a request's identity under a serve
/// configuration. Two requests collide only if they would compute the
/// identical result: the key covers the molecule, basis, exact bond
/// length bits, exact compression ratio bits, the topology the compiler
/// targets, and the `(seed, fault_rate)` pair that parameterizes the
/// engine's deterministic retry/fault draws.
pub fn cache_key(spec: &JobSpec, serve_seed: u64, fault_rate: f64) -> u64 {
    // Same X-Tree sizing rule as the engine's compile stage.
    let xtree_nodes = spec.benchmark.expected_qubits().max(5) + 1;
    let identity = format!(
        "{}|{}|{:016x}|{:016x}|xtree{}|{}|{:016x}",
        spec.benchmark.name(),
        BASIS,
        spec.bond_length().to_bits(),
        spec.ratio.to_bits(),
        xtree_nodes,
        serve_seed,
        fault_rate.to_bits(),
    );
    let mut h = splitmix64(0x5EED_CAFE ^ serve_seed);
    for byte in identity.bytes() {
        h = splitmix64(h ^ u64::from(byte));
    }
    h
}

/// A converged result as the cache stores it — exactly the fields of a
/// `Done` [`JobState`], so a hit reconstructs the record bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedResult {
    /// VQE energy as raw IEEE-754 bits.
    pub energy_bits: u64,
    /// Optimizer outer iterations.
    pub iterations: usize,
    /// Objective evaluations.
    pub evaluations: usize,
    /// SCF ladder retries.
    pub scf_retries: usize,
    /// Whether the compiler fell back to SABRE.
    pub sabre_fallback: bool,
}

impl CachedResult {
    /// Extracts the cacheable fields from a terminal `Done` state.
    pub fn from_state(state: &JobState) -> Option<CachedResult> {
        match state {
            JobState::Done {
                energy_bits,
                iterations,
                evaluations,
                scf_retries,
                sabre_fallback,
            } => Some(CachedResult {
                energy_bits: *energy_bits,
                iterations: *iterations,
                evaluations: *evaluations,
                scf_retries: *scf_retries,
                sabre_fallback: *sabre_fallback,
            }),
            _ => None,
        }
    }

    /// Rebuilds the `Done` state a hit answers with.
    pub fn to_state(self) -> JobState {
        JobState::Done {
            energy_bits: self.energy_bits,
            iterations: self.iterations,
            evaluations: self.evaluations,
            scf_retries: self.scf_retries,
            sabre_fallback: self.sabre_fallback,
        }
    }
}

fn field_u64(record: &JsonValue, field: &str) -> Option<u64> {
    record.get(field)?.as_u64()
}

fn field_bits(record: &JsonValue, field: &str) -> Option<u64> {
    let s = record.get(field)?.as_str()?;
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// What a [`Cache::probe`] found: a verified entry, nothing, or a
/// corrupt entry that was just quarantined aside (the caller recomputes
/// on the latter two, but only the last one is a robustness event worth
/// counting separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum CacheProbe {
    /// A sealed entry verified and decoded.
    Hit(CachedResult),
    /// No entry for this key.
    Miss,
    /// A corrupt entry was detected and moved aside.
    Quarantined,
}

/// The clock state behind second-chance eviction: which keys were
/// referenced since the sweep last passed them, and where the sweep
/// hand stands. Shared across clones so every handle sees one clock.
#[derive(Debug, Default)]
struct ClockState {
    referenced: std::collections::BTreeSet<u64>,
    hand: u64,
}

/// The on-disk cache: one sealed entry per key under `dir`, optionally
/// capped by total bytes with deterministic second-chance eviction.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    clock: std::sync::Arc<std::sync::Mutex<ClockState>>,
}

impl Cache {
    /// Opens (creating if needed) the cache directory, uncapped.
    ///
    /// # Errors
    ///
    /// The `create_dir_all` failure, if any.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Cache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Cache {
            dir,
            max_bytes: None,
            clock: std::sync::Arc::default(),
        })
    }

    /// Caps the cache at `max_bytes` total sealed bytes (`None` =
    /// unbounded). Over-cap stores trigger a second-chance sweep: keys
    /// are visited in ascending order from a persistent hand; a key
    /// probed since the hand last passed it is spared once (its
    /// reference bit clears), an unreferenced key is evicted. The sweep
    /// is a pure function of the operation sequence — no clocks, no
    /// randomness — so two daemons replaying the same requests evict
    /// the same entries.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Cache {
        self.max_bytes = max_bytes;
        self
    }

    /// The entry path for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{CACHE_EXT}"))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks `key` up, distinguishing a clean miss from a corrupt entry.
    /// An unreadable or corrupt entry (CRC mismatch, wrong kind, wrong
    /// key, malformed fields) is quarantined aside to `*.quarantined` —
    /// the caller recomputes either way, so corruption costs latency,
    /// never correctness.
    pub fn probe(&self, key: u64) -> CacheProbe {
        let path = self.entry_path(key);
        if !path.exists() {
            return CacheProbe::Miss;
        }
        match Self::decode_entry(&path, key) {
            Ok(result) => {
                obs::counter_add("serve.cache.hit", 1);
                self.lock_clock().referenced.insert(key);
                CacheProbe::Hit(result)
            }
            Err(reason) => {
                self.quarantine(&path, &reason);
                CacheProbe::Quarantined
            }
        }
    }

    /// [`probe`](Self::probe) collapsed to an `Option` for callers that
    /// do not care why an entry was unusable.
    pub fn load(&self, key: u64) -> Option<CachedResult> {
        match self.probe(key) {
            CacheProbe::Hit(result) => Some(result),
            CacheProbe::Miss | CacheProbe::Quarantined => None,
        }
    }

    fn decode_entry(path: &Path, key: u64) -> Result<CachedResult, String> {
        let ck = Checkpoint::read(path).map_err(|e| e.to_string())?;
        ck.expect_kind(KIND_SERVE_CACHE)
            .map_err(|e| e.to_string())?;
        let [header, result] = ck.payload.as_slice() else {
            return Err(format!(
                "cache entry has {} lines, expected 2",
                ck.payload.len()
            ));
        };
        let stored_key = field_bits(header, "key").ok_or("cache entry missing key")?;
        if stored_key != key {
            return Err(format!(
                "cache entry keyed {stored_key:016x}, expected {key:016x}"
            ));
        }
        Ok(CachedResult {
            energy_bits: field_bits(result, "energy").ok_or("cache entry missing energy")?,
            iterations: field_u64(result, "iterations").ok_or("bad iterations")? as usize,
            evaluations: field_u64(result, "evaluations").ok_or("bad evaluations")? as usize,
            scf_retries: field_u64(result, "scf_retries").ok_or("bad scf_retries")? as usize,
            sabre_fallback: result
                .get("sabre_fallback")
                .and_then(JsonValue::as_bool)
                .ok_or("bad sabre_fallback")?,
        })
    }

    /// Renames a corrupt entry aside (best effort — a failed rename
    /// leaves the corrupt file in place, where the next load will try to
    /// quarantine it again) and records the event.
    fn quarantine(&self, path: &Path, reason: &str) {
        let mut target = path.as_os_str().to_owned();
        target.push(".quarantined");
        obs::counter_add("serve.cache.quarantined", 1);
        obs::event!(
            "serve.cache_quarantine",
            path = path.display().to_string(),
            reason = reason.to_string()
        );
        let _ = std::fs::rename(path, &target);
    }

    /// Seals `result` under `key`. The write is atomic
    /// (temp + fsync + rename) unless the [`FaultKind::CacheWrite`] site
    /// orders a torn write, in which case a deliberately truncated seal
    /// lands on disk — the next [`load`](Self::load) detects and
    /// quarantines it. Returns whether a *good* seal was written.
    pub fn store(&self, key: u64, result: CachedResult, plan: &mut FaultPlan) -> bool {
        let path = self.entry_path(key);
        let header = JsonValue::Object(
            [("key".to_string(), JsonValue::String(format!("{key:016x}")))]
                .into_iter()
                .collect(),
        );
        let body = JsonValue::Object(
            [
                (
                    "energy".to_string(),
                    JsonValue::String(format!("{:016x}", result.energy_bits)),
                ),
                (
                    "iterations".to_string(),
                    JsonValue::Number(result.iterations as f64),
                ),
                (
                    "evaluations".to_string(),
                    JsonValue::Number(result.evaluations as f64),
                ),
                (
                    "scf_retries".to_string(),
                    JsonValue::Number(result.scf_retries as f64),
                ),
                (
                    "sabre_fallback".to_string(),
                    JsonValue::Bool(result.sabre_fallback),
                ),
            ]
            .into_iter()
            .collect(),
        );
        let ck = Checkpoint::new(KIND_SERVE_CACHE, vec![header, body]);
        if plan.should_inject(FaultKind::CacheWrite) {
            // Torn write: drop the CRC trailer (and then some) so the
            // seal cannot verify. The entry is poison until the next
            // read quarantines it.
            let bytes = ck.to_bytes();
            let torn = &bytes[..bytes.len().saturating_sub(24)];
            let _ = obs::atomic_write(&path, torn);
            obs::counter_add("serve.cache.torn_writes", 1);
            return false;
        }
        match ck.write(&path) {
            Ok(()) => {
                obs::counter_add("serve.cache.sealed", 1);
                self.enforce_cap(key);
                true
            }
            Err(e) => {
                // A failed seal is a lost optimization, not an error:
                // count it and move on.
                obs::event!(
                    "serve.cache_write_failed",
                    path = path.display().to_string(),
                    error = e.to_string()
                );
                false
            }
        }
    }

    fn lock_clock(&self) -> std::sync::MutexGuard<'_, ClockState> {
        self.clock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Every sealed entry on disk, ascending by key: `(key, bytes)`.
    /// Only canonical `<16-hex>.cache` names count — quarantined files
    /// are forensics, not cache contents.
    fn sealed_entries(&self) -> Vec<(u64, u64)> {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut entries: Vec<(u64, u64)> = read
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                let hex = name.strip_suffix(&format!(".{CACHE_EXT}"))?;
                if hex.len() != 16 {
                    return None;
                }
                let key = u64::from_str_radix(hex, 16).ok()?;
                Some((key, e.metadata().ok()?.len()))
            })
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Second-chance sweep bringing the cache back under `max_bytes`.
    /// `just_stored` is never evicted (the entry the caller is about to
    /// rely on), which also guarantees the sweep terminates: every other
    /// key is evicted after at most two visits.
    fn enforce_cap(&self, just_stored: u64) {
        let Some(cap) = self.max_bytes else { return };
        let entries = self.sealed_entries();
        let mut total: u64 = entries.iter().map(|(_, bytes)| bytes).sum();
        if total <= cap {
            return;
        }
        let mut clock = self.lock_clock();
        let keys: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
        let sizes: std::collections::BTreeMap<u64, u64> = entries.into_iter().collect();
        let mut idx = keys.partition_point(|&k| k < clock.hand);
        for _ in 0..keys.len() * 2 {
            if total <= cap {
                break;
            }
            if idx >= keys.len() {
                idx = 0;
            }
            let key = keys[idx];
            idx += 1;
            clock.hand = key.wrapping_add(1);
            if key == just_stored {
                continue;
            }
            if clock.referenced.remove(&key) {
                // Referenced since the hand last passed: one more chance.
                continue;
            }
            if std::fs::remove_file(self.entry_path(key)).is_ok() {
                total -= sizes.get(&key).copied().unwrap_or(0);
                obs::counter_add("serve.cache_evicted", 1);
                obs::event!(
                    "serve.cache_evict",
                    key = format!("{key:016x}"),
                    total_bytes = total
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::Benchmark;

    fn spec(bond: f64) -> JobSpec {
        JobSpec {
            id: "t".to_string(),
            benchmark: Benchmark::H2,
            bond: Some(bond),
            ratio: 1.0,
        }
    }

    fn sample() -> CachedResult {
        CachedResult {
            energy_bits: (-1.1372f64).to_bits(),
            iterations: 9,
            evaluations: 40,
            scf_retries: 1,
            sabre_fallback: false,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pcd-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_is_content_pure_and_sensitive() {
        let a = cache_key(&spec(0.74), 7, 0.0);
        assert_eq!(a, cache_key(&spec(0.74), 7, 0.0), "same content, same key");
        assert_ne!(a, cache_key(&spec(0.75), 7, 0.0), "bond changes key");
        assert_ne!(a, cache_key(&spec(0.74), 8, 0.0), "seed changes key");
        assert_ne!(a, cache_key(&spec(0.74), 7, 0.1), "fault rate changes key");
        let mut other = spec(0.74);
        other.ratio = 0.5;
        assert_ne!(a, cache_key(&other, 7, 0.0), "ratio changes key");
        // The id is *not* part of the identity: two clients naming the
        // same computation differently share the entry.
        let mut renamed = spec(0.74);
        renamed.id = "other".to_string();
        assert_eq!(a, cache_key(&renamed, 7, 0.0));
    }

    /// Cache keys name sealed files on disk and request seeds fix every
    /// engine draw, so neither may move across releases: a moved key
    /// orphans every cache entry, a moved seed changes served energies.
    #[test]
    fn key_and_request_seed_are_pinned() {
        let spec = JobSpec {
            id: "pin".to_string(),
            benchmark: Benchmark::LiH,
            bond: Some(1.6),
            ratio: 0.5,
        };
        let key = cache_key(&spec, 42, 0.1);
        assert_eq!(key, 0xdbe2_f068_b495_6c67);
        assert_eq!(crate::request_seed(42, key), 0x669d_53e7_14ea_0998);
    }

    #[test]
    fn round_trip_hit() {
        let cache = Cache::open(scratch("roundtrip")).unwrap();
        let key = cache_key(&spec(0.74), 1, 0.0);
        assert_eq!(cache.load(key), None, "cold cache misses");
        assert!(cache.store(key, sample(), &mut FaultPlan::none()));
        assert_eq!(cache.load(key), Some(sample()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_is_quarantined() {
        let cache = Cache::open(scratch("truncated")).unwrap();
        let key = cache_key(&spec(0.74), 2, 0.0);
        assert!(cache.store(key, sample(), &mut FaultPlan::none()));
        let path = cache.entry_path(key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(cache.load(key), None, "truncation must not serve");
        assert!(!path.exists(), "corrupt entry moved aside");
        assert!(
            path.with_extension(format!("{CACHE_EXT}.quarantined"))
                .exists(),
            "quarantined alongside"
        );
        // The slot is clean again: a recompute can reseal it.
        assert!(cache.store(key, sample(), &mut FaultPlan::none()));
        assert_eq!(cache.load(key), Some(sample()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bit_flipped_entry_is_quarantined() {
        let cache = Cache::open(scratch("bitflip")).unwrap();
        let key = cache_key(&spec(0.70), 3, 0.0);
        assert!(cache.store(key, sample(), &mut FaultPlan::none()));
        let path = cache.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.load(key), None, "bit flip must not serve");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn injected_torn_write_is_caught_on_read() {
        let cache = Cache::open(scratch("torn")).unwrap();
        let key = cache_key(&spec(0.66), 4, 0.0);
        let mut always = FaultPlan::new(0, 1.0);
        assert!(
            !cache.store(key, sample(), &mut always),
            "torn seal reported"
        );
        assert!(cache.entry_path(key).exists(), "poison landed on disk");
        assert_eq!(cache.load(key), None, "poison must not serve");
        assert!(!cache.entry_path(key).exists(), "poison quarantined");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Total sealed bytes currently in `cache`'s directory.
    fn sealed_bytes(cache: &Cache) -> u64 {
        cache.sealed_entries().iter().map(|(_, b)| b).sum()
    }

    #[test]
    fn capped_cache_stays_under_cap_across_a_storm() {
        obs::enable();
        let uncapped = Cache::open(scratch("capsize")).unwrap();
        let probe_key = cache_key(&spec(0.5), 0, 0.0);
        assert!(uncapped.store(probe_key, sample(), &mut FaultPlan::none()));
        let entry_bytes = sealed_bytes(&uncapped);
        let _ = std::fs::remove_dir_all(uncapped.dir());

        let cap = entry_bytes * 4;
        let cache = Cache::open(scratch("storm"))
            .unwrap()
            .with_max_bytes(Some(cap));
        let before = obs::snapshot()
            .counters
            .get("serve.cache_evicted")
            .copied()
            .unwrap_or(0);
        for i in 0..32 {
            let key = cache_key(&spec(0.5 + 0.01 * i as f64), 1, 0.0);
            assert!(cache.store(key, sample(), &mut FaultPlan::none()));
            assert!(
                sealed_bytes(&cache) <= cap,
                "store {i} left {} bytes over the {cap}-byte cap",
                sealed_bytes(&cache)
            );
        }
        let after = obs::snapshot()
            .counters
            .get("serve.cache_evicted")
            .copied()
            .unwrap_or(0);
        assert!(after >= before + 28, "32 stores into 4 slots must evict");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn second_chance_spares_the_recently_probed_entry() {
        // Cap sized for two entries: store two, probe the first (setting
        // its reference bit), then store a third. The sweep must clear
        // the probed entry's bit and spare it, evicting the unprobed one.
        let sizing = Cache::open(scratch("chance-size")).unwrap();
        let k = cache_key(&spec(0.9), 2, 0.0);
        assert!(sizing.store(k, sample(), &mut FaultPlan::none()));
        let entry_bytes = sealed_bytes(&sizing);
        let _ = std::fs::remove_dir_all(sizing.dir());

        let cache = Cache::open(scratch("chance"))
            .unwrap()
            .with_max_bytes(Some(entry_bytes * 2));
        let k1 = cache_key(&spec(0.6), 2, 0.0);
        let k2 = cache_key(&spec(0.7), 2, 0.0);
        let k3 = cache_key(&spec(0.8), 2, 0.0);
        assert!(cache.store(k1, sample(), &mut FaultPlan::none()));
        assert!(cache.store(k2, sample(), &mut FaultPlan::none()));
        assert_eq!(cache.load(k1), Some(sample()), "probe marks k1 referenced");
        assert!(cache.store(k3, sample(), &mut FaultPlan::none()));
        assert_eq!(cache.load(k1), Some(sample()), "referenced entry spared");
        assert_eq!(cache.load(k3), Some(sample()), "fresh store never evicted");
        assert_eq!(cache.load(k2), None, "unreferenced entry evicted");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn eviction_is_deterministic_across_replays() {
        let run = |tag: &str| -> Vec<String> {
            let sizing = Cache::open(scratch(&format!("{tag}-size"))).unwrap();
            let k = cache_key(&spec(0.9), 3, 0.0);
            assert!(sizing.store(k, sample(), &mut FaultPlan::none()));
            let entry_bytes = sealed_bytes(&sizing);
            let _ = std::fs::remove_dir_all(sizing.dir());

            let cache = Cache::open(scratch(tag))
                .unwrap()
                .with_max_bytes(Some(entry_bytes * 3));
            for i in 0..12 {
                let key = cache_key(&spec(0.5 + 0.02 * i as f64), 3, 0.0);
                assert!(cache.store(key, sample(), &mut FaultPlan::none()));
                if i % 3 == 0 {
                    let _ = cache.load(key);
                }
            }
            let mut survivors: Vec<String> = cache
                .sealed_entries()
                .iter()
                .map(|(k, _)| format!("{k:016x}"))
                .collect();
            survivors.sort();
            let _ = std::fs::remove_dir_all(cache.dir());
            survivors
        };
        assert_eq!(run("replay-a"), run("replay-b"));
    }

    #[test]
    fn wrong_key_entry_is_rejected() {
        let cache = Cache::open(scratch("wrongkey")).unwrap();
        let key_a = cache_key(&spec(0.74), 5, 0.0);
        let key_b = cache_key(&spec(0.78), 5, 0.0);
        assert!(cache.store(key_a, sample(), &mut FaultPlan::none()));
        // Simulate an aliased file: copy A's sealed bytes into B's slot.
        std::fs::copy(cache.entry_path(key_a), cache.entry_path(key_b)).unwrap();
        assert_eq!(cache.load(key_b), None, "key mismatch must not serve");
        assert_eq!(cache.load(key_a), Some(sample()), "A is untouched");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
