//! The 16 simulator versions of case study #2 (paper Table 4).
//!
//! A version picks a level of detail for three components: the network
//! topology (4 options), the compute node (2 options), and the adaptive
//! MPI communication protocol (2 options) — `4 x 2 x 2 = 16` versions.
//!
//! Parameter ranges follow §6.3.1: bandwidths/latencies span at least one
//! order of magnitude below and above Summit's hardware specification.
//! `simulator::model` declares each knob with its range, where the
//! resolved model uses it.

use serde::{Deserialize, Serialize};
use simcal::prelude::ParameterSpace;

/// Level of detail for the network topology (Table 4, top).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyModel {
    /// A single shared backbone link.
    Backbone,
    /// A shared backbone plus a dedicated link per compute node.
    BackboneLinks,
    /// A 4-ary tree of switches with uniform links.
    Tree4,
    /// A Summit-like fat tree: per-node down links and per-L1-switch up
    /// links into a non-blocking core (18 nodes per L1 switch).
    FatTree,
}

/// Level of detail for the compute node (Table 4, middle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeModel {
    /// Multi-core node with an abstract NIC: intra-node details elided.
    Simple,
    /// Two-socket node: ranks reach the NIC via a PCIe bus, far-socket
    /// ranks additionally cross the X-Bus SMP interconnect.
    Complex,
}

/// Level of detail for the adaptive MPI protocol (Table 4, bottom).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolModel {
    /// Protocol switches at two *known* message sizes (determined
    /// empirically); three bandwidth factors to calibrate.
    FixedChangepoints,
    /// Change points are unknown: three factors plus two change points to
    /// calibrate.
    ArbitraryChangepoints,
}

/// The message-size change points of the "fixed" protocol model, as
/// log2(bytes): eager/segmented at 8 KiB, rendezvous at 128 KiB.
pub const FIXED_CHANGEPOINTS_LOG2: [f64; 2] = [13.0, 17.0];

/// One of the 16 simulator versions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MpiSimulatorVersion {
    /// Network topology level of detail.
    pub topology: TopologyModel,
    /// Compute-node level of detail.
    pub node: NodeModel,
    /// Adaptive-protocol level of detail.
    pub protocol: ProtocolModel,
}

impl MpiSimulatorVersion {
    /// All 16 versions, node-major (matching Figure 5's layout: simple-node
    /// half first, then complex-node).
    pub fn all() -> Vec<MpiSimulatorVersion> {
        let mut v = Vec::with_capacity(16);
        for node in [NodeModel::Simple, NodeModel::Complex] {
            for topology in [
                TopologyModel::Backbone,
                TopologyModel::BackboneLinks,
                TopologyModel::Tree4,
                TopologyModel::FatTree,
            ] {
                for protocol in [
                    ProtocolModel::FixedChangepoints,
                    ProtocolModel::ArbitraryChangepoints,
                ] {
                    v.push(MpiSimulatorVersion {
                        topology,
                        node,
                        protocol,
                    });
                }
            }
        }
        v
    }

    /// The highest level of detail (fat tree, complex node, arbitrary
    /// change points).
    pub fn highest_detail() -> MpiSimulatorVersion {
        MpiSimulatorVersion {
            topology: TopologyModel::FatTree,
            node: NodeModel::Complex,
            protocol: ProtocolModel::ArbitraryChangepoints,
        }
    }

    /// The lowest level of detail (backbone, simple node, fixed change
    /// points). Used by the §6.4 uncalibrated baseline.
    pub fn lowest_detail() -> MpiSimulatorVersion {
        MpiSimulatorVersion {
            topology: TopologyModel::Backbone,
            node: NodeModel::Simple,
            protocol: ProtocolModel::FixedChangepoints,
        }
    }

    /// Short report label, e.g. `"backbone+links/simple/fixed"`.
    pub fn label(&self) -> String {
        let t = match self.topology {
            TopologyModel::Backbone => "backbone",
            TopologyModel::BackboneLinks => "backbone+links",
            TopologyModel::Tree4 => "4-ary-tree",
            TopologyModel::FatTree => "fat-tree",
        };
        let n = match self.node {
            NodeModel::Simple => "simple",
            NodeModel::Complex => "complex",
        };
        let p = match self.protocol {
            ProtocolModel::FixedChangepoints => "fixed",
            ProtocolModel::ArbitraryChangepoints => "arbitrary",
        };
        format!("{t}/{n}/{p}")
    }

    /// The calibration parameter space this version exposes: its knobs
    /// as `simulator::model` asks for them, in that order.
    pub fn parameter_space(&self) -> ParameterSpace {
        ParameterSpace::declared_by(|knob| crate::simulator::model(*self, knob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcal::prelude::ParamKind;

    #[test]
    fn there_are_sixteen_distinct_versions() {
        let all = MpiSimulatorVersion::all();
        assert_eq!(all.len(), 16);
        let mut labels: Vec<String> = all.iter().map(|v| v.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 16);
    }

    #[test]
    fn dimension_extremes() {
        // Lowest: 2 (backbone) + 0 (simple) + 3 (factors) = 5.
        assert_eq!(
            MpiSimulatorVersion::lowest_detail().parameter_space().dim(),
            5
        );
        // Highest: 3 (fat tree) + 2 (complex) + 5 (arbitrary protocol) = 10.
        assert_eq!(
            MpiSimulatorVersion::highest_detail()
                .parameter_space()
                .dim(),
            10
        );
    }

    #[test]
    fn arbitrary_protocol_adds_two_dimensions() {
        for v in MpiSimulatorVersion::all() {
            let fixed = MpiSimulatorVersion {
                protocol: ProtocolModel::FixedChangepoints,
                ..v
            };
            let arb = MpiSimulatorVersion {
                protocol: ProtocolModel::ArbitraryChangepoints,
                ..v
            };
            assert_eq!(
                arb.parameter_space().dim(),
                fixed.parameter_space().dim() + 2
            );
        }
    }

    #[test]
    fn figure5_ordering_is_node_major() {
        let all = MpiSimulatorVersion::all();
        assert!(all[..8].iter().all(|v| v.node == NodeModel::Simple));
        assert!(all[8..].iter().all(|v| v.node == NodeModel::Complex));
    }

    #[test]
    fn every_space_has_protocol_factors() {
        for v in MpiSimulatorVersion::all() {
            let s = v.parameter_space();
            for name in ["factor_small", "factor_medium", "factor_large"] {
                assert!(s.index_of(name).is_some(), "{} missing {name}", v.label());
            }
        }
    }

    /// Every version's label, then each parameter's name, kind and bounds,
    /// in order: a knob renamed, reordered or re-ranged moves this word,
    /// and with it every ledger key, cache fingerprint and digest.
    #[test]
    fn parameter_spaces_are_pinned() {
        use simcal::cache::{fnv1a, fnv1a_fold};
        let mut words = Vec::new();
        for v in MpiSimulatorVersion::all() {
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
        assert_eq!(format!("{:016x}", fnv1a_fold(words)), "013918fb2997ae35");
    }
}
