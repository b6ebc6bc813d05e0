//! Persistent, content-addressed loss cache shared across calibration runs.
//!
//! The in-memory memoization of [`crate::budget::Evaluator`] dies with each
//! evaluator, so every sweep re-pays the full simulation bill even when it
//! re-calibrates an identical (objective, version, scenario set, seed)
//! combination. This module adds a durable layer behind that memo map: a
//! JSONL shard file per (fingerprint, seed) under a user-chosen directory,
//! keyed by the canonical bit pattern of the natural-unit calibration.
//!
//! Design contract:
//!
//! - **Content-addressed.** A shard is named by a 64-bit FNV-1a chain over
//!   (objective fingerprint, simulator version digest, scenario-set hash,
//!   seed); a record inside a shard is keyed by the calibration's
//!   [`canonical_key`]. Changing the simulator version (or the ground-truth
//!   dataset) changes the digest and therefore the shard — stale entries
//!   are never consulted, so invalidation is automatic.
//! - **Never fails a calibration.** A shard is a [`crate::jsonl`] log
//!   (torn tails heal on open, transient errors retry, unparsable lines
//!   are skipped). Any error that log still returns degrades the cache
//!   to memory-only operation: diagnosed once (via `obs::diag!`) and
//!   silently skipped thereafter. Later records win on key collision.
//! - **Failures are cached too.** A quarantined evaluation (panic or
//!   non-finite loss) is persisted as a typed record so a warm run replays
//!   the quarantine without re-invoking the broken simulator.
//!
//! The cache location comes from [`install`] (programmatic, used by
//! `lodsel::run_sweep`'s `cache` config) or the `CALIB_CACHE` environment
//! variable; evaluators snapshot the active directory at construction, the
//! same discipline [`crate::fault`] uses for fault plans.

use crate::jsonl::{self, JsonlLog};
use crate::param::Calibration;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string — the workspace's one content hash:
/// cache shard names, subset tags, ledger checkpoint keys and family
/// fingerprints are all built from it, so it must never change.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a step over whole 64-bit words (each typically an [`fnv1a`] of one
/// component): the combiner behind [`CacheFingerprint::shard_id`] and
/// lodsel's dataset fingerprints.
pub fn fnv1a_fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Canonical cache bits of one calibration component: `-0.0` folds into
/// `0.0` (they are equal calibrations and must share an entry), and a NaN
/// component yields `None` — NaN is not equal to itself, so a NaN point
/// has no meaningful identity and is never cached.
fn canonical_bits(v: f64) -> Option<u64> {
    if v.is_nan() {
        return None;
    }
    // `+0.0 == -0.0`, so this folds the negative zero; every other value
    // keeps its exact bit pattern.
    Some(if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    })
}

/// Canonical cache key of a slice of natural-unit parameter values.
/// Returns `None` when any component is NaN (such a point is evaluated
/// uncached).
pub fn canonical_key_of(values: &[f64]) -> Option<Vec<u64>> {
    values.iter().map(|&v| canonical_bits(v)).collect()
}

/// Canonical cache key of a calibration — the shared key function used by
/// both the evaluator's in-memory memo map and the on-disk cache.
pub fn canonical_key(calib: &Calibration) -> Option<Vec<u64>> {
    canonical_key_of(&calib.values)
}

/// Content address of one calibration problem: what must match for a
/// cached loss to be valid. Each component is a 64-bit digest; the
/// [`CacheFingerprint::of`] constructor hashes human-readable identifiers,
/// but callers with structured digests (e.g. a version family's
/// fingerprint) can fill the fields directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheFingerprint {
    /// Digest of the objective definition (loss function + space).
    pub objective: u64,
    /// Digest of the simulator version being calibrated.
    pub version: u64,
    /// Digest of the ground-truth scenario set.
    pub scenarios: u64,
}

impl CacheFingerprint {
    /// Fingerprint from human-readable objective/version identifiers plus
    /// a structured scenario-set digest.
    pub fn of(objective: &str, version: &str, scenarios: u64) -> Self {
        Self {
            objective: fnv1a(objective.as_bytes()),
            version: fnv1a(version.as_bytes()),
            scenarios,
        }
    }

    /// The shard a calibration run with this fingerprint and `seed` reads
    /// and writes: an FNV-1a chain over the four components, so any
    /// difference in objective, version, scenario set, or seed lands in a
    /// different file.
    pub fn shard_id(&self, seed: u64) -> u64 {
        fnv1a_fold(
            [self.objective, self.version, self.scenarios, seed].map(|p| fnv1a(&p.to_le_bytes())),
        )
    }
}

/// Shard file path for `shard` under `dir`.
pub fn shard_path(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard-{shard:016x}.jsonl"))
}

/// A persisted evaluation outcome. Struct variants only: the workspace's
/// serde stand-in derives struct/unit enum variants but not tuple ones.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CachedOutcome {
    /// The objective returned this finite loss.
    Loss {
        /// The loss value (bit-exact through the JSON round-trip).
        loss: f64,
    },
    /// The objective panicked; replayed as a quarantined failure.
    Panic {
        /// The panic payload rendered as a string.
        message: String,
    },
    /// The objective returned a non-finite loss; replayed as quarantined.
    NonFinite {
        /// Bit pattern ([`f64::to_bits`]) of the offending loss — stored
        /// as bits because JSON has no NaN/Infinity literal.
        loss_bits: u64,
    },
}

/// One JSONL line of a shard: the natural-unit calibration values and the
/// outcome of evaluating them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheRecord {
    /// Natural-unit parameter values (the key, pre-canonicalization).
    pub values: Vec<f64>,
    /// What evaluating them produced.
    pub outcome: CachedOutcome,
}

/// One shard of the on-disk loss cache, bound to a single calibration
/// run's (fingerprint, seed). All I/O errors degrade to memory-only
/// operation; no method ever fails the caller.
pub struct DiskCache {
    path: PathBuf,
    entries: RwLock<HashMap<Vec<u64>, CachedOutcome>>,
    /// The shard's log; `None` once the cache has permanently degraded
    /// to memory-only after an unrecoverable I/O error.
    log: Mutex<Option<JsonlLog>>,
}

impl DiskCache {
    /// Open (creating if absent) the shard for `shard` under `dir`,
    /// loading every parsable record; records later in the file win on
    /// key collision. On persistent I/O failure the cache opens degraded
    /// (memory-only) and diagnoses the reason once — it never returns an
    /// error.
    pub fn open(dir: &Path, shard: u64) -> Self {
        let path = shard_path(dir, shard);
        let mut entries = HashMap::new();
        let log = match JsonlLog::open::<CacheRecord>(&path) {
            Ok((log, records)) => {
                for record in records {
                    if let Some(key) = canonical_key_of(&record.values) {
                        entries.insert(key, record.outcome);
                    }
                }
                Some(log)
            }
            Err(e) => {
                obs::diag!(
                    "loss cache degraded to memory-only ({}): {e}",
                    path.display()
                );
                None
            }
        };
        Self {
            path,
            entries: RwLock::new(entries),
            log: Mutex::new(log),
        }
    }

    /// The cached outcome at `key`, if any.
    pub fn lookup(&self, key: &[u64]) -> Option<CachedOutcome> {
        self.entries.read().unwrap().get(key).cloned()
    }

    /// Record `outcome` for the calibration `values`, both in memory and
    /// (best-effort) appended to the shard file. A NaN-component key, or
    /// an outcome identical to the one already stored, is skipped. A
    /// persistent append failure degrades the cache to memory-only.
    pub fn store(&self, values: &[f64], outcome: CachedOutcome) {
        let Some(key) = canonical_key_of(values) else {
            return;
        };
        {
            let mut entries = self.entries.write().unwrap();
            if entries.get(&key) == Some(&outcome) {
                return;
            }
            entries.insert(key, outcome.clone());
        }
        let record = CacheRecord {
            values: values.to_vec(),
            outcome,
        };
        let mut log = self.log.lock().unwrap();
        if let Some(Err(e)) = log.as_mut().map(|l| l.append(&record)) {
            obs::diag!(
                "loss cache degraded to memory-only ({}): {e}",
                self.path.display()
            );
            *log = None;
        }
    }

    /// Number of cached entries (in memory).
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the cache has fallen back to memory-only operation.
    pub fn degraded(&self) -> bool {
        self.log.lock().unwrap().is_none()
    }

    /// The shard file this cache reads and appends.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Finite cached losses from the shard for (`fingerprint`, `seed`) under
/// `dir`, as `(natural values, loss)` pairs for warm-starting a new
/// calibration's surrogate. Pairs are deduplicated by canonical key
/// (later records win, first-seen order preserved); quarantined and
/// non-finite records are excluded. Missing or unreadable shards yield an
/// empty list.
pub fn load_finite_observations(
    dir: &Path,
    fingerprint: CacheFingerprint,
    seed: u64,
) -> Vec<(Vec<f64>, f64)> {
    let path = shard_path(dir, fingerprint.shard_id(seed));
    let records = jsonl::read::<CacheRecord>(&path).unwrap_or_default();
    let mut order: Vec<Vec<u64>> = Vec::new();
    let mut by_key: HashMap<Vec<u64>, (Vec<f64>, f64)> = HashMap::new();
    for record in records {
        let Some(key) = canonical_key_of(&record.values) else {
            continue;
        };
        match record.outcome {
            CachedOutcome::Loss { loss } if loss.is_finite() => {
                if by_key.insert(key.clone(), (record.values, loss)).is_none() {
                    order.push(key);
                }
            }
            // A later quarantine supersedes an earlier finite loss for
            // the same point: drop it from the warm-start set.
            _ => {
                if by_key.remove(&key).is_some() {
                    order.retain(|k| *k != key);
                }
            }
        }
    }
    order
        .into_iter()
        .filter_map(|k| by_key.remove(&k))
        .collect()
}

/// The programmatically installed cache directory, if any. Overrides the
/// environment.
static DIR: RwLock<Option<Arc<PathBuf>>> = RwLock::new(None);

/// The `CALIB_CACHE` environment directory, read once per process.
static ENV_DIR: OnceLock<Option<Arc<PathBuf>>> = OnceLock::new();

/// Install `dir` as the process-global cache directory; evaluators
/// constructed afterwards snapshot it. Replaces any previously installed
/// directory and overrides `CALIB_CACHE`.
pub fn install(dir: impl Into<PathBuf>) {
    *DIR.write().unwrap() = Some(Arc::new(dir.into()));
}

/// Remove the programmatically installed cache directory (the
/// `CALIB_CACHE` environment directory, if set, becomes visible again).
pub fn uninstall() {
    *DIR.write().unwrap() = None;
}

/// The programmatically installed cache directory, ignoring the
/// environment — lets scoped installers (e.g. a sweep configured with its
/// own cache) save and restore whatever was active before them.
pub fn installed() -> Option<Arc<PathBuf>> {
    DIR.read().unwrap().clone()
}

/// The currently active cache directory: the installed one, else
/// `CALIB_CACHE`, else `None` (caching disabled). An empty `CALIB_CACHE`
/// counts as unset.
pub fn current() -> Option<Arc<PathBuf>> {
    if let Some(dir) = DIR.read().unwrap().clone() {
        return Some(dir);
    }
    ENV_DIR
        .get_or_init(|| {
            let text = std::env::var("CALIB_CACHE").ok()?;
            let trimmed = text.trim();
            (!trimmed.is_empty()).then(|| Arc::new(PathBuf::from(trimmed)))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Collision-free temp directory (tests run concurrently).
    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("simcal-cache-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn canonical_key_folds_signed_zero_and_rejects_nan() {
        assert_eq!(
            canonical_key_of(&[0.0, 1.5]),
            canonical_key_of(&[-0.0, 1.5])
        );
        assert_ne!(canonical_key_of(&[0.5]), canonical_key_of(&[-0.5]));
        assert_eq!(canonical_key_of(&[f64::NAN]), None);
        assert_eq!(canonical_key_of(&[1.0, f64::NAN, 2.0]), None);
        // Infinities are orderable and self-equal: they keep an identity.
        assert!(canonical_key_of(&[f64::INFINITY]).is_some());
    }

    #[test]
    fn hashes_behind_on_disk_names_are_pinned() {
        // Shard file names are these values: they must never move.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"lodcal"), 0x22ba_71a9_6a05_b824);
        let fingerprint = CacheFingerprint::of("wf", "v0 / montage", 0x1234);
        assert_eq!(fingerprint.shard_id(7), 0xc7c8_713a_ad63_4269);
        // The fold behind lodsel's dataset fingerprints.
        let parts = ["wf|loss=L1", "app=montage"].map(|p| fnv1a(p.as_bytes()));
        assert_eq!(fnv1a_fold(parts), 0x7265_8b85_d037_8e68);
    }

    #[test]
    fn fingerprint_components_all_move_the_shard() {
        let base = CacheFingerprint::of("obj", "v1", 42);
        assert_ne!(
            base.shard_id(0),
            CacheFingerprint::of("obj2", "v1", 42).shard_id(0)
        );
        assert_ne!(
            base.shard_id(0),
            CacheFingerprint::of("obj", "v2", 42).shard_id(0)
        );
        assert_ne!(
            base.shard_id(0),
            CacheFingerprint::of("obj", "v1", 43).shard_id(0)
        );
        assert_ne!(base.shard_id(0), base.shard_id(1));
        assert_eq!(
            base.shard_id(7),
            CacheFingerprint::of("obj", "v1", 42).shard_id(7)
        );
    }

    #[test]
    fn outcomes_roundtrip_through_the_shard_file() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::open(&dir, 0xabc);
        assert!(cache.is_empty());
        cache.store(&[1.5, -0.0], CachedOutcome::Loss { loss: 1.0 / 3.0 });
        cache.store(
            &[2.5, 0.25],
            CachedOutcome::Panic {
                message: "simulator \"diverged\"\n badly".into(),
            },
        );
        cache.store(
            &[3.5, 0.5],
            CachedOutcome::NonFinite {
                loss_bits: f64::NAN.to_bits(),
            },
        );
        drop(cache);
        let back = DiskCache::open(&dir, 0xabc);
        assert_eq!(back.len(), 3);
        // The signed-zero component was canonicalized: +0.0 looks it up.
        let key = canonical_key_of(&[1.5, 0.0]).unwrap();
        match back.lookup(&key) {
            Some(CachedOutcome::Loss { loss }) => {
                assert_eq!(loss.to_bits(), (1.0f64 / 3.0).to_bits());
            }
            other => panic!("expected Loss, got {other:?}"),
        }
        match back.lookup(&canonical_key_of(&[2.5, 0.25]).unwrap()) {
            Some(CachedOutcome::Panic { message }) => {
                assert!(message.contains("simulator \"diverged\""));
            }
            other => panic!("expected Panic, got {other:?}"),
        }
        match back.lookup(&canonical_key_of(&[3.5, 0.5]).unwrap()) {
            Some(CachedOutcome::NonFinite { loss_bits }) => {
                assert!(f64::from_bits(loss_bits).is_nan())
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        // Other shards in the same directory are independent.
        assert!(DiskCache::open(&dir, 0xdef).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nan_keys_and_duplicate_outcomes_are_not_persisted() {
        let dir = tmp_dir("nankey");
        let cache = DiskCache::open(&dir, 1);
        cache.store(&[f64::NAN], CachedOutcome::Loss { loss: 1.0 });
        assert!(cache.is_empty());
        cache.store(&[1.0], CachedOutcome::Loss { loss: 2.0 });
        cache.store(&[1.0], CachedOutcome::Loss { loss: 2.0 });
        let text = std::fs::read_to_string(cache.path()).unwrap();
        assert_eq!(text.lines().count(), 1, "duplicate store appends nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    // Writes a shard line by hand, behind the log's back.
    #[allow(clippy::disallowed_methods)]
    fn torn_tail_is_healed_and_skipped() {
        let dir = tmp_dir("torn");
        {
            let cache = DiskCache::open(&dir, 2);
            cache.store(&[1.0], CachedOutcome::Loss { loss: 10.0 });
        }
        // Simulate a crash mid-append: a half-written record with no
        // trailing newline.
        let path = shard_path(&dir, 2);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"values\":[2.0],\"outcome\":{\"Lo").unwrap();
        drop(f);
        let cache = DiskCache::open(&dir, 2);
        assert_eq!(cache.len(), 1, "the torn record is skipped");
        assert!(cache.lookup(&canonical_key_of(&[1.0]).unwrap()).is_some());
        // The tail was terminated, so a new append starts a clean line
        // that survives the next open.
        cache.store(&[3.0], CachedOutcome::Loss { loss: 30.0 });
        drop(cache);
        let back = DiskCache::open(&dir, 2);
        assert_eq!(back.len(), 2);
        assert!(back.lookup(&canonical_key_of(&[3.0]).unwrap()).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_skipped_and_later_records_win() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = shard_path(&dir, 3);
        std::fs::write(
            &path,
            concat!(
                "{\"values\":[1.0],\"outcome\":{\"Loss\":{\"loss\":1.0}}}\n",
                "this is not json\n",
                "{\"values\":[1.0]}\n",
                "{\"values\":[1.0],\"outcome\":{\"Loss\":{\"loss\":2.0}}}\n",
            ),
        )
        .unwrap();
        let cache = DiskCache::open(&dir, 3);
        assert_eq!(cache.len(), 1);
        match cache.lookup(&canonical_key_of(&[1.0]).unwrap()) {
            Some(CachedOutcome::Loss { loss }) => assert_eq!(loss, 2.0, "later record wins"),
            other => panic!("expected Loss, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopenable_directory_degrades_to_memory_only() {
        // Use a *file* where the cache expects a directory: create_dir_all
        // fails persistently, so the cache must degrade, not panic.
        let dir = tmp_dir("degraded");
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        std::fs::write(&dir, b"i am a file").unwrap();
        let cache = DiskCache::open(&dir, 4);
        assert!(cache.degraded());
        // Memory-only operation still works.
        cache.store(&[1.0], CachedOutcome::Loss { loss: 5.0 });
        assert_eq!(
            cache.lookup(&canonical_key_of(&[1.0]).unwrap()),
            Some(CachedOutcome::Loss { loss: 5.0 })
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    // Writes a shard line by hand, behind the log's back.
    #[allow(clippy::disallowed_methods)]
    fn finite_observations_exclude_failures_and_dedup() {
        let dir = tmp_dir("warm");
        let fp = CacheFingerprint::of("obj", "v1", 9);
        let seed = 77;
        {
            let cache = DiskCache::open(&dir, fp.shard_id(seed));
            cache.store(&[1.0], CachedOutcome::Loss { loss: 10.0 });
            cache.store(
                &[2.0],
                CachedOutcome::Panic {
                    message: "boom".into(),
                },
            );
            cache.store(
                &[3.0],
                CachedOutcome::NonFinite {
                    loss_bits: f64::INFINITY.to_bits(),
                },
            );
            cache.store(&[4.0], CachedOutcome::Loss { loss: 40.0 });
        }
        // Append a superseding record for [1.0] directly (store() dedups
        // identical outcomes, and a fresh DiskCache would consult its map).
        {
            let path = shard_path(&dir, fp.shard_id(seed));
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"values\":[1.0],\"outcome\":{\"Loss\":{\"loss\":11.0}}}\n")
                .unwrap();
        }
        let obs = load_finite_observations(&dir, fp, seed);
        assert_eq!(
            obs,
            vec![(vec![1.0], 11.0), (vec![4.0], 40.0)],
            "failures excluded, later finite record wins, order preserved"
        );
        assert!(load_finite_observations(&dir, fp, seed + 1).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
