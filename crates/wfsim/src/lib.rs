//! # wfsim — case study #1: scientific workflows
//!
//! A workflow simulator in the style of the paper's WRENCH-based simulator
//! (§5), with **twelve level-of-detail versions** (3 network x 2 storage
//! x 2 compute options, [`versions::SimulatorVersion`]), WfCommons-style
//! workflow [generators](generator) covering the paper's Table 1, a
//! Pegasus/HTCondor-style [ground-truth emulator](ground_truth)
//! substituting for the Chameleon Cloud testbed, and the
//! [`simcal`] integration ([`scenario`]) that makes every
//! version automatically calibratable.
//!
//! ## Example
//!
//! ```
//! use wfsim::prelude::*;
//! use simcal::prelude::*;
//!
//! // Ground truth for a small forkjoin configuration.
//! let records = dataset_for(AppKind::Forkjoin, &DatasetOptions {
//!     repetitions: 2,
//!     size_indices: vec![0],
//!     work_indices: vec![0],
//!     footprint_indices: vec![1],
//!     worker_counts: vec![2],
//!     ..Default::default()
//! });
//! let scenarios = WfScenario::from_records(&records);
//!
//! // Calibrate the lowest-detail simulator against it.
//! let sim = WorkflowSimulator::new(SimulatorVersion::lowest_detail());
//! let obj = objective(&sim, &scenarios,
//!     StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"));
//! let result = Calibrator::bo_gp(Budget::Evaluations(30), 1).calibrate(&obj);
//! assert!(result.loss.is_finite());
//! ```

pub mod generator;
pub mod ground_truth;
pub mod scenario;
pub mod simulator;
pub mod spec;
pub mod versions;
pub mod wfcommons;
pub mod workflow;

/// One-stop imports for case-study-1 users.
pub mod prelude {
    pub use crate::generator::{
        generate, table1, AppKind, Table1Row, WorkflowSpec, OPS_PER_REF_SECOND,
    };
    pub use crate::ground_truth::{
        dataset, dataset_for, split_train_test, DatasetOptions, EmulatorConfig, GroundTruthRecord,
    };
    pub use crate::scenario::{objective, WfScenario};
    pub use crate::simulator::{SimOutput, WorkflowSimulator};
    pub use crate::spec::spec_calibration;
    pub use crate::versions::{ComputeModel, NetworkModel, SimulatorVersion, StorageModel};
    pub use crate::wfcommons::{from_json, to_json};
    pub use crate::workflow::{DataFile, FileId, Task, TaskId, Workflow};
}
