//! # mpisim — case study #2: message-passing applications
//!
//! An SMPI-style MPI point-to-point benchmark simulator (§6) with
//! **sixteen level-of-detail versions** (4 topology x 2 node x 2 protocol
//! options, [`versions::MpiSimulatorVersion`]), the IMB communication
//! patterns PingPing / PingPong / BiRandom / Stencil ([`benchmarks`]), a
//! Summit-style [ground-truth emulator](ground_truth) with hidden
//! scale-dependent congestion, and the [`simcal`] integration
//! ([`scenario`]) using explained-variance losses.
//!
//! ## Example
//!
//! ```
//! use mpisim::prelude::*;
//! use simcal::prelude::*;
//!
//! let cfg = MpiEmulatorConfig { repetitions: 3, ..Default::default() };
//! let scenarios = dataset(&[BenchmarkKind::PingPong], &[8], &cfg, 42);
//!
//! let sim = MpiSimulator::new(MpiSimulatorVersion::lowest_detail());
//! let obj = objective(&sim, &scenarios, MatrixLoss::new(Agg::Avg, Agg::Avg, "L1"));
//! let result = Calibrator::bo_gp(Budget::Evaluations(30), 1).calibrate(&obj);
//! assert!(result.loss.is_finite());
//! ```

pub mod benchmarks;
pub mod ground_truth;
pub mod scenario;
pub mod simulator;
pub mod spec;
pub mod versions;

/// One-stop imports for case-study-2 users.
pub mod prelude {
    pub use crate::benchmarks::{message_sizes, BenchmarkKind, NODE_COUNTS, RANKS_PER_NODE};
    pub use crate::ground_truth::{dataset, MpiEmulatorConfig, MpiGroundTruthRecord};
    pub use crate::scenario::{mean_relative_rate_error, objective, MpiRun, MpiScenario};
    pub use crate::simulator::{workload_seed, MpiSimulator, INTRA_NODE_BW};
    pub use crate::spec::spec_calibration;
    pub use crate::versions::{
        MpiSimulatorVersion, NodeModel, ProtocolModel, TopologyModel, FIXED_CHANGEPOINTS_LOG2,
    };
}
