//! The 8 level-of-detail versions of the data-grid case study.
//!
//! All versions execute the same federated workload (jobs brokered to
//! sites, reading files from storage elements, remote files fetched over
//! WAN links); what varies is how much of the grid middleware's behaviour
//! is modelled, along the three axes the HEP infrastructure models of
//! Horzela et al. and CGSim expose:
//!
//! - **transfer detail** — every remote file as its own kernel flow
//!   (max-min bandwidth sharing on the source *and* destination access
//!   links) versus one aggregate flow-level transfer per job on the
//!   destination link only;
//! - **cache detail** — an explicit per-site LRU over file identities
//!   with a calibratable capacity versus an analytic hit-ratio model;
//! - **broker detail** — a serial per-job broker with a decision
//!   overhead and a dynamic (cache-aware) placement policy versus
//!   instant bulk placement from static file homes.
//!
//! `2 x 2 x 2 = 8` versions, in the spirit of the paper's Tables 2 and 4.
//! `simulator::model` declares each version's knobs with their ranges,
//! where the resolved model uses them.

use serde::{Deserialize, Serialize};
use simcal::prelude::{ParamKind, ParameterSpace};

/// WAN-transfer level of detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferDetail {
    /// One flow-level transfer per job: all remote bytes arrive through
    /// the destination site's access link as a single flow, sources are
    /// not modelled, and there is no per-file startup cost.
    FlowLevel,
    /// One kernel flow per remote file, routed over the source and
    /// destination access links (so a hot data site's uplink is a real
    /// bottleneck), each paying a calibratable middleware startup.
    PerFile,
}

/// Site-cache level of detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheDetail {
    /// Analytic cache: a calibratable fraction of every remote read is
    /// served locally; no per-file state is kept.
    HitRatio,
    /// Explicit per-site LRU over file identities with a calibratable
    /// byte capacity; hits depend on the actual access sequence.
    Lru,
}

/// Job-broker level of detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BrokerDetail {
    /// All arrivals are placed instantly (no broker service time) at the
    /// site holding the most of the job's input bytes, judged from
    /// static file homes only.
    Bulk,
    /// A serial broker places one job at a time, each decision paying a
    /// calibratable overhead, and judges locality from the dynamic site
    /// state (storage elements plus current cache contents).
    PerJob,
}

/// One of the 8 grid-simulator versions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridVersion {
    /// WAN-transfer level of detail.
    pub transfer: TransferDetail,
    /// Site-cache level of detail.
    pub cache: CacheDetail,
    /// Job-broker level of detail.
    pub broker: BrokerDetail,
}

impl GridVersion {
    /// All 8 versions, transfer-major (flow-level first, then per-file).
    pub fn all() -> Vec<GridVersion> {
        let mut v = Vec::with_capacity(8);
        for transfer in [TransferDetail::FlowLevel, TransferDetail::PerFile] {
            for cache in [CacheDetail::HitRatio, CacheDetail::Lru] {
                for broker in [BrokerDetail::Bulk, BrokerDetail::PerJob] {
                    v.push(GridVersion {
                        transfer,
                        cache,
                        broker,
                    });
                }
            }
        }
        v
    }

    /// The highest level of detail (per-file + LRU + per-job broker) —
    /// 7 parameters.
    pub fn highest_detail() -> GridVersion {
        GridVersion {
            transfer: TransferDetail::PerFile,
            cache: CacheDetail::Lru,
            broker: BrokerDetail::PerJob,
        }
    }

    /// The lowest level of detail (flow-level + hit-ratio + bulk) —
    /// 5 parameters.
    pub fn lowest_detail() -> GridVersion {
        GridVersion {
            transfer: TransferDetail::FlowLevel,
            cache: CacheDetail::HitRatio,
            broker: BrokerDetail::Bulk,
        }
    }

    /// Short report label, e.g. `"perfile/lru/perjob"`.
    pub fn label(&self) -> String {
        let t = match self.transfer {
            TransferDetail::FlowLevel => "flow",
            TransferDetail::PerFile => "perfile",
        };
        let c = match self.cache {
            CacheDetail::HitRatio => "hitratio",
            CacheDetail::Lru => "lru",
        };
        let b = match self.broker {
            BrokerDetail::Bulk => "bulk",
            BrokerDetail::PerJob => "perjob",
        };
        format!("{t}/{c}/{b}")
    }

    /// The calibration parameter space this version exposes: its knobs
    /// as `simulator::model` asks for them, in that order. Sizes are in MB
    /// and rates in MB/s throughout the crate.
    pub fn parameter_space(&self) -> ParameterSpace {
        let mut space = ParameterSpace::new();
        crate::simulator::model(*self, &mut |name, kind: ParamKind| {
            space.add(name, kind);
            0.0
        });
        space
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_distinct_versions() {
        let all = GridVersion::all();
        assert_eq!(all.len(), 8);
        let mut labels: Vec<String> = all.iter().map(|v| v.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn dimension_range() {
        assert_eq!(GridVersion::lowest_detail().parameter_space().dim(), 5);
        assert_eq!(GridVersion::highest_detail().parameter_space().dim(), 7);
    }

    #[test]
    fn every_space_has_the_platform_parameters() {
        for v in GridVersion::all() {
            let space = v.parameter_space();
            for name in [
                "core_speed",
                "wan_bandwidth",
                "wan_latency",
                "disk_bandwidth",
            ] {
                assert!(space.index_of(name).is_some(), "{}: {name}", v.label());
            }
        }
    }

    #[test]
    fn axis_knobs_appear_exactly_when_modelled() {
        for v in GridVersion::all() {
            let space = v.parameter_space();
            assert_eq!(
                space.index_of("cache_mb").is_some(),
                v.cache == CacheDetail::Lru
            );
            assert_eq!(
                space.index_of("hit_ratio").is_some(),
                v.cache == CacheDetail::HitRatio
            );
            assert_eq!(
                space.index_of("transfer_startup").is_some(),
                v.transfer == TransferDetail::PerFile
            );
            assert_eq!(
                space.index_of("broker_overhead").is_some(),
                v.broker == BrokerDetail::PerJob
            );
        }
    }

    /// Every version's label, then each parameter's name, kind and bounds,
    /// in order: a knob renamed, reordered or re-ranged moves this word,
    /// and with it every ledger key, cache fingerprint and digest.
    #[test]
    fn parameter_spaces_are_pinned() {
        use simcal::cache::{fnv1a, fnv1a_fold};
        let mut words = Vec::new();
        for v in GridVersion::all() {
            words.push(fnv1a(v.label().as_bytes()));
            for p in v.parameter_space().params() {
                words.push(fnv1a(p.name.as_bytes()));
                words.extend(match p.kind {
                    ParamKind::Continuous { lo, hi } => [0, lo.to_bits(), hi.to_bits()],
                    ParamKind::Exponential { lo_exp, hi_exp } => {
                        [1, lo_exp.to_bits(), hi_exp.to_bits()]
                    }
                    ParamKind::Integer { lo, hi } => [2, lo as u64, hi as u64],
                });
            }
        }
        assert_eq!(format!("{:016x}", fnv1a_fold(words)), "e476721ac0247919");
    }
}
