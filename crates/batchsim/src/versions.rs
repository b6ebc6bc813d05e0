//! The 4 level-of-detail versions of the batch-scheduling case study.
//!
//! All versions run the same EASY-backfilling algorithm; what varies is
//! how much of the platform's behaviour around the scheduler is modelled:
//! the scheduler-overhead model (2 options) and the job-runtime model
//! (2 options) — `2 x 2 = 4` versions, in the spirit of the paper's
//! Tables 2 and 4. `simulator::model` declares each version's knobs with
//! their ranges, where the resolved model uses them.

use serde::{Deserialize, Serialize};
use simcal::prelude::ParameterSpace;

/// Scheduler-overhead level of detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OverheadDetail {
    /// The scheduler reacts instantly and job dispatch is free.
    Instant,
    /// Scheduling passes run at a periodic cycle, and each job pays a
    /// dispatch overhead (RJMS daemons behave this way).
    Cycle,
}

/// Job-runtime level of detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuntimeDetail {
    /// Runtime is the job's work divided by the node speed.
    Proportional,
    /// Runtime is additionally inflated by cluster utilization at start
    /// (shared-resource interference: network, parallel filesystem).
    Contention,
}

/// One of the 4 batch-simulator versions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BatchVersion {
    /// Overhead level of detail.
    pub overhead: OverheadDetail,
    /// Runtime level of detail.
    pub runtime: RuntimeDetail,
}

impl BatchVersion {
    /// All 4 versions, overhead-major.
    pub fn all() -> Vec<BatchVersion> {
        let mut v = Vec::with_capacity(4);
        for overhead in [OverheadDetail::Instant, OverheadDetail::Cycle] {
            for runtime in [RuntimeDetail::Proportional, RuntimeDetail::Contention] {
                v.push(BatchVersion { overhead, runtime });
            }
        }
        v
    }

    /// The highest level of detail (cycle + contention) — 4 parameters.
    pub fn highest_detail() -> BatchVersion {
        BatchVersion {
            overhead: OverheadDetail::Cycle,
            runtime: RuntimeDetail::Contention,
        }
    }

    /// The lowest level of detail (instant + proportional) — 1 parameter.
    pub fn lowest_detail() -> BatchVersion {
        BatchVersion {
            overhead: OverheadDetail::Instant,
            runtime: RuntimeDetail::Proportional,
        }
    }

    /// Short report label, e.g. `"cycle/contention"`.
    pub fn label(&self) -> String {
        let o = match self.overhead {
            OverheadDetail::Instant => "instant",
            OverheadDetail::Cycle => "cycle",
        };
        let r = match self.runtime {
            RuntimeDetail::Proportional => "proportional",
            RuntimeDetail::Contention => "contention",
        };
        format!("{o}/{r}")
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
    fn four_distinct_versions() {
        let all = BatchVersion::all();
        assert_eq!(all.len(), 4);
        let mut labels: Vec<String> = all.iter().map(|v| v.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn dimension_range() {
        assert_eq!(BatchVersion::lowest_detail().parameter_space().dim(), 1);
        assert_eq!(BatchVersion::highest_detail().parameter_space().dim(), 4);
    }

    #[test]
    fn every_space_has_node_speed() {
        for v in BatchVersion::all() {
            assert!(
                v.parameter_space().index_of("node_speed").is_some(),
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
        for v in BatchVersion::all() {
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
        assert_eq!(format!("{:016x}", fnv1a_fold(words)), "fe8d0f02b64e2085");
    }
}
