//! The 12 simulator versions of case study #1 (paper Table 2).
//!
//! A simulator version is a choice of level of detail for three
//! components: the network (3 options), the storage system (2 options),
//! and the compute system (2 options) — `3 x 2 x 2 = 12` versions. Each
//! version induces its own calibration [`ParameterSpace`]; the highest
//! level of detail has 10 parameters, matching the paper.
//!
//! Parameter ranges follow §5.3.1: bandwidths and core speeds are `2^x`
//! for `20 <= x <= 40`, latencies in `[0, 10ms]`, overheads in `[0, 20s]`,
//! and the maximum number of concurrent disk I/O operations in `[1, 100]`.
//! `simulator::model` declares each knob with its range, where the
//! resolved model uses it.

use serde::{Deserialize, Serialize};
use simcal::prelude::{ParamKind, ParameterSpace};

/// Level of detail for simulating the network (Table 2, top).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkModel {
    /// A single shared network link between the submit node and all workers.
    OneLink,
    /// A dedicated link between the submit node and each worker.
    Star,
    /// A shared link out of the submit node, in series with a dedicated
    /// link to each worker.
    SharedDedicated,
}

/// Level of detail for simulating the storage system (Table 2, middle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageModel {
    /// Only the submit node has storage; all data is streamed to/from it.
    SubmitOnly,
    /// Submit node and every worker have storage; worker-local data is
    /// reused by later tasks on the same worker.
    AllNodes,
}

/// Level of detail for simulating the compute system (Table 2, bottom).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputeModel {
    /// The WMS submits tasks directly to workers: no middleware is
    /// modelled, so tasks start as soon as they are scheduled.
    Direct,
    /// The WMS goes through HTCondor: task starts are batched at periodic
    /// negotiation cycles, and each task pays a per-task overhead.
    HtCondor,
}

/// One of the 12 simulator versions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimulatorVersion {
    /// Network level of detail.
    pub network: NetworkModel,
    /// Storage level of detail.
    pub storage: StorageModel,
    /// Compute level of detail.
    pub compute: ComputeModel,
}

impl SimulatorVersion {
    /// All 12 versions, compute-major (matching Figure 2's layout:
    /// no-HTCondor half first, then HTCondor).
    pub fn all() -> Vec<SimulatorVersion> {
        let mut v = Vec::with_capacity(12);
        for compute in [ComputeModel::Direct, ComputeModel::HtCondor] {
            for network in [
                NetworkModel::OneLink,
                NetworkModel::Star,
                NetworkModel::SharedDedicated,
            ] {
                for storage in [StorageModel::SubmitOnly, StorageModel::AllNodes] {
                    v.push(SimulatorVersion {
                        network,
                        storage,
                        compute,
                    });
                }
            }
        }
        v
    }

    /// The highest level of detail (shared+dedicated network, storage on
    /// all nodes, HTCondor) — 10 parameters.
    pub fn highest_detail() -> SimulatorVersion {
        SimulatorVersion {
            network: NetworkModel::SharedDedicated,
            storage: StorageModel::AllNodes,
            compute: ComputeModel::HtCondor,
        }
    }

    /// The lowest level of detail (one link, submit-only storage, direct
    /// submission) — 5 parameters. Used by the §5.4 uncalibrated baseline.
    pub fn lowest_detail() -> SimulatorVersion {
        SimulatorVersion {
            network: NetworkModel::OneLink,
            storage: StorageModel::SubmitOnly,
            compute: ComputeModel::Direct,
        }
    }

    /// Short report label, e.g. `"onelink/all/condor"`.
    pub fn label(&self) -> String {
        let n = match self.network {
            NetworkModel::OneLink => "onelink",
            NetworkModel::Star => "star",
            NetworkModel::SharedDedicated => "shared+dedicated",
        };
        let s = match self.storage {
            StorageModel::SubmitOnly => "submit",
            StorageModel::AllNodes => "all",
        };
        let c = match self.compute {
            ComputeModel::Direct => "direct",
            ComputeModel::HtCondor => "condor",
        };
        format!("{n}/{s}/{c}")
    }

    /// The calibration parameter space this version exposes: its knobs
    /// as `simulator::model` asks for them, in that order.
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
    fn there_are_twelve_distinct_versions() {
        let all = SimulatorVersion::all();
        assert_eq!(all.len(), 12);
        let mut labels: Vec<String> = all.iter().map(|v| v.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn highest_detail_has_ten_parameters() {
        assert_eq!(
            SimulatorVersion::highest_detail().parameter_space().dim(),
            10
        );
    }

    #[test]
    fn lowest_detail_has_five_parameters() {
        assert_eq!(SimulatorVersion::lowest_detail().parameter_space().dim(), 5);
    }

    #[test]
    fn parameter_counts_per_component() {
        // Network: 2 / 2 / 4; storage: 2 / 3; compute: 1 / 3.
        let dims: Vec<usize> = SimulatorVersion::all()
            .iter()
            .map(|v| v.parameter_space().dim())
            .collect();
        assert_eq!(*dims.iter().min().unwrap(), 5);
        assert_eq!(*dims.iter().max().unwrap(), 10);
    }

    #[test]
    fn figure2_ordering_is_compute_major() {
        let all = SimulatorVersion::all();
        assert!(all[..6].iter().all(|v| v.compute == ComputeModel::Direct));
        assert!(all[6..].iter().all(|v| v.compute == ComputeModel::HtCondor));
    }

    #[test]
    fn every_space_has_core_speed() {
        for v in SimulatorVersion::all() {
            assert!(
                v.parameter_space().index_of("core_speed").is_some(),
                "{}",
                v.label()
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
        for v in SimulatorVersion::all() {
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
        assert_eq!(format!("{:016x}", fnv1a_fold(words)), "8e48a9c1fb526c1d");
    }
}
