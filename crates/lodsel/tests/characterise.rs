//! Characterisation pins for the real family adapters: the sweep digest of
//! a tiny wf, mpi and batch family under both the fixed-budget and the
//! successive-halving policy, and the names of the loss-cache shard files
//! a successive-halving sweep leaves behind. The shard names are content
//! hashes of (family, unit label or `label#sub<tag>`, dataset fingerprint,
//! seed), so they move if — and only if — a full-set or a subset cache
//! fingerprint moves.
//!
//! Every value was recorded before the adapters were merged into one
//! generic adapter and the two objectives into one; a refactor must leave
//! all of them bit for bit.

mod common;

use common::{tiny_batch, tiny_mpi, tiny_wf};
use lodsel::prelude::*;
use simcal::prelude::Budget;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The cache directory is process-global state, and a sweep running while
/// another test's directory is installed would add its shards there:
/// every test of this file holds the lock.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn per_run() -> SweepConfig {
    SweepConfig::per_run(Budget::Evaluations(6), 2, 42)
}

fn halving(cache: Option<&Path>) -> SweepConfig {
    SweepConfig {
        budget: BudgetPolicy::SuccessiveHalving {
            total: 60,
            eta: 2,
            min_scenarios: 1,
        },
        cache: cache.map(Path::to_path_buf),
        ..per_run()
    }
}

fn tmp_cache_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lodsel-characterise-{tag}-{}", std::process::id()))
}

/// Both digests of `family`, and the sorted shard file names of the SH
/// sweep's loss cache.
fn characterise(family: &dyn VersionFamily, tag: &str) -> (String, String, Vec<String>) {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fixed = run_sweep(family, &per_run(), None);
    assert!(fixed.failures.is_empty(), "{:?}", fixed.failures);
    // An empty held-out set would pin nothing about `evaluate`.
    assert!(fixed.versions.iter().all(|v| v.work_units > 0));

    let dir = tmp_cache_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let sh = run_sweep(family, &halving(Some(&dir)), None);
    assert!(sh.failures.is_empty(), "{:?}", sh.failures);
    let mut shards: Vec<String> = std::fs::read_dir(&dir)
        .expect("the SH sweep wrote a cache directory")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    shards.sort();
    let _ = std::fs::remove_dir_all(&dir);

    // The cache is a replay layer: the same SH sweep without one digests
    // identically.
    assert_eq!(
        run_sweep(family, &halving(None), None).digest(),
        sh.digest()
    );
    (fixed.digest(), sh.digest(), shards)
}

#[test]
fn wf_digests_and_cache_shards_are_pinned() {
    let (fixed, sh, shards) = characterise(&tiny_wf(3), "wf");
    assert_eq!(fixed, "45a10da033be4681");
    assert_eq!(sh, "a9544d81b5e05026");
    assert_eq!(
        shards,
        [
            "shard-618b872b53c542e4.jsonl",
            "shard-a56a95ed02b6f93e.jsonl",
            "shard-ab67b3d0c90fb4f0.jsonl",
            "shard-e351ee3ffec64853.jsonl",
            "shard-f6ebed1c4408f6cc.jsonl",
            "shard-f998a44dcf5a0c6e.jsonl",
            "shard-fe87afc14c6fff8b.jsonl",
        ]
    );
}

#[test]
fn mpi_digests_and_cache_shards_are_pinned() {
    let (fixed, sh, shards) = characterise(&tiny_mpi(5), "mpi");
    assert_eq!(fixed, "5f9a6c3c280722fe");
    assert_eq!(sh, "ddf8a7974bbfa9b4");
    assert_eq!(
        shards,
        [
            "shard-07030f42acfd531c.jsonl",
            "shard-1f7c53d7d6a220be.jsonl",
            "shard-3ff7d68e175efb9e.jsonl",
            "shard-9f065da9b7d6760e.jsonl",
            "shard-ad476ee790272c26.jsonl",
            "shard-ccd6578f6437f242.jsonl",
            "shard-d6a0bd11bde77044.jsonl",
        ]
    );
}

#[test]
fn batch_digests_and_cache_shards_are_pinned() {
    let (fixed, sh, shards) = characterise(&tiny_batch(1), "batch");
    assert_eq!(fixed, "5580610dafac26f8");
    assert_eq!(sh, "327400e190d10a84");
    assert_eq!(
        shards,
        [
            "shard-0301a139fc2daec3.jsonl",
            "shard-6b33bca7fa2d397c.jsonl",
            "shard-763d53cad0fc6a9a.jsonl",
            "shard-8a749eb050d009df.jsonl",
            "shard-8c3efd326dd9f95e.jsonl",
            "shard-9282d6623558af3f.jsonl",
            "shard-a8ad393cb4b82c8a.jsonl",
            "shard-aabd41b151b8a72e.jsonl",
            "shard-c2abb45a39110643.jsonl",
            "shard-e2ff94c52a21b036.jsonl",
            "shard-e8417e25d8d4afaa.jsonl",
            "shard-f6b1e1327fa2efad.jsonl",
            "shard-fbc47c1d124758ce.jsonl",
        ]
    );
}
