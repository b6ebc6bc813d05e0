//! Loss functions quantifying the discrepancy between ground-truth and
//! simulated executions (paper §3, §5.3.2, §6.3.2).
//!
//! The paper's two case studies use two structurally different families:
//!
//! - **Structured losses** (case study #1): each scenario yields a scalar
//!   error (the makespan error `e_i`) plus per-element errors (the task
//!   execution-time errors `e_{i,j}`). [`StructuredLoss`] composes them as
//!   `outer_i(e_i [+ mix_j(e_{i,j})])`, which covers the paper's
//!   L1–L6 exactly.
//! - **Matrix losses** (case study #2): each scenario (benchmark) yields a
//!   row of explained-variance values over message sizes; [`MatrixLoss`]
//!   composes `outer_i(inner_j(ev_{i,j}))`, covering the paper's L1–L4.

use serde::{Deserialize, Serialize};

/// A user-provided loss function turning per-scenario simulation results
/// into the scalar the calibrator minimizes.
pub trait Loss<O>: Sync {
    /// Aggregate per-scenario results into a scalar loss (lower is better).
    fn aggregate(&self, per_scenario: &[O]) -> f64;
}

/// Average or maximum — the two aggregation operators the paper composes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Agg {
    /// Arithmetic mean over the aggregated values.
    Avg,
    /// Maximum over the aggregated values.
    Max,
}

impl Agg {
    /// Apply the operator; empty input yields `0.0` for `Avg` and
    /// `f64::NEG_INFINITY`-guarded `0.0` for `Max` (an empty scenario set
    /// carries no error signal).
    pub fn apply(self, xs: impl Iterator<Item = f64>) -> f64 {
        match self {
            Agg::Avg => {
                let mut sum = 0.0;
                let mut n = 0usize;
                for x in xs {
                    sum += x;
                    n += 1;
                }
                if n == 0 {
                    0.0
                } else {
                    sum / n as f64
                }
            }
            Agg::Max => xs.fold(f64::NEG_INFINITY, f64::max).max(0.0),
        }
    }
}

/// How per-element errors enter a scenario's contribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElementMix {
    /// Use the scalar error alone (paper's L1, L2).
    Ignore,
    /// Add the *average* per-element error (paper's L3, L4).
    AddAvg,
    /// Add the *maximum* per-element error (paper's L5, L6).
    AddMax,
}

/// Per-scenario structured simulation error: a scalar plus per-element
/// errors. For case study #1 the scalar is the relative makespan error and
/// the elements are relative per-task execution-time errors.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioError {
    /// Scalar error of the scenario (e.g. `|m - m̂| / m`).
    pub scalar: f64,
    /// Per-element errors (e.g. per-task time errors).
    pub elements: Vec<f64>,
    /// Deterministic simulation work of the run (the simulator's event
    /// count); losses ignore it.
    pub work: u64,
}

impl ScenarioError {
    /// A scenario error with no per-element component and no work.
    pub fn scalar_only(scalar: f64) -> Self {
        Self {
            scalar,
            elements: Vec::new(),
            work: 0,
        }
    }
}

/// `outer_i( e_i  ⊕  mix_j(e_{i,j}) )` — the family covering the paper's
/// workflow losses L1–L6 (§5.3.2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StructuredLoss {
    /// Aggregation across scenarios.
    pub outer: Agg,
    /// Contribution of per-element errors within a scenario.
    pub mix: ElementMix,
    name: String,
}

impl StructuredLoss {
    /// Build with an explicit report name.
    pub fn new(outer: Agg, mix: ElementMix, name: &str) -> Self {
        Self {
            outer,
            mix,
            name: name.to_string(),
        }
    }

    /// The paper's six workflow loss functions, in order L1..L6.
    pub fn paper_set() -> Vec<StructuredLoss> {
        vec![
            StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1"),
            StructuredLoss::new(Agg::Max, ElementMix::Ignore, "L2"),
            StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3"),
            StructuredLoss::new(Agg::Max, ElementMix::AddAvg, "L4"),
            StructuredLoss::new(Agg::Avg, ElementMix::AddMax, "L5"),
            StructuredLoss::new(Agg::Max, ElementMix::AddMax, "L6"),
        ]
    }

    /// Short identifier for reports (e.g. `"L1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn scenario_term(&self, s: &ScenarioError) -> f64 {
        let element_term = match self.mix {
            ElementMix::Ignore => 0.0,
            ElementMix::AddAvg => Agg::Avg.apply(s.elements.iter().copied()),
            ElementMix::AddMax => {
                if s.elements.is_empty() {
                    0.0
                } else {
                    Agg::Max.apply(s.elements.iter().copied())
                }
            }
        };
        s.scalar + element_term
    }
}

impl Loss<ScenarioError> for StructuredLoss {
    fn aggregate(&self, per_scenario: &[ScenarioError]) -> f64 {
        self.outer
            .apply(per_scenario.iter().map(|s| self.scenario_term(s)))
    }
}

/// `outer_i( inner_j( v_{i,j} ) )` over a per-scenario row of values — the
/// family covering the paper's MPI losses L1–L4 (§6.3.2), where `v_{i,j}`
/// is the explained variance of benchmark `i` at message size `j`. A row
/// is anything that reads as `&[f64]`: a plain `Vec<f64>`, or a
/// simulator output that carries its row beside other results.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MatrixLoss {
    /// Aggregation across scenarios (benchmarks).
    pub outer: Agg,
    /// Aggregation within a scenario (message sizes).
    pub inner: Agg,
    name: String,
}

impl MatrixLoss {
    /// Build with an explicit report name.
    pub fn new(outer: Agg, inner: Agg, name: &str) -> Self {
        Self {
            outer,
            inner,
            name: name.to_string(),
        }
    }

    /// The paper's four MPI loss functions, in order L1..L4.
    pub fn paper_set() -> Vec<MatrixLoss> {
        vec![
            MatrixLoss::new(Agg::Avg, Agg::Avg, "L1"),
            MatrixLoss::new(Agg::Avg, Agg::Max, "L2"),
            MatrixLoss::new(Agg::Max, Agg::Avg, "L3"),
            MatrixLoss::new(Agg::Max, Agg::Max, "L4"),
        ]
    }

    /// Short identifier for reports (e.g. `"L1"`).
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<R: AsRef<[f64]>> Loss<R> for MatrixLoss {
    fn aggregate(&self, per_scenario: &[R]) -> f64 {
        self.outer.apply(
            per_scenario
                .iter()
                .map(|row| self.inner.apply(row.as_ref().iter().copied())),
        )
    }
}

/// Relative error `|truth - sim| / |truth|`, guarded against a zero truth.
pub fn relative_error(truth: f64, sim: f64) -> f64 {
    (truth - sim).abs() / truth.abs().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(scalar: f64, elements: &[f64]) -> ScenarioError {
        ScenarioError {
            scalar,
            elements: elements.to_vec(),
            work: 0,
        }
    }

    #[test]
    fn agg_avg_and_max() {
        assert_eq!(Agg::Avg.apply([1.0, 2.0, 3.0].into_iter()), 2.0);
        assert_eq!(Agg::Max.apply([1.0, 5.0, 3.0].into_iter()), 5.0);
        assert_eq!(Agg::Avg.apply(std::iter::empty()), 0.0);
        assert_eq!(Agg::Max.apply(std::iter::empty()), 0.0);
    }

    #[test]
    fn paper_l1_is_average_makespan_error() {
        let l1 = &StructuredLoss::paper_set()[0];
        let data = [s(0.1, &[9.0, 9.0]), s(0.3, &[9.0])];
        assert!((l1.aggregate(&data) - 0.2).abs() < 1e-12);
        assert_eq!(l1.name(), "L1");
    }

    #[test]
    fn paper_l2_is_max_makespan_error() {
        let l2 = &StructuredLoss::paper_set()[1];
        let data = [s(0.1, &[]), s(0.3, &[]), s(0.2, &[])];
        assert_eq!(l2.aggregate(&data), 0.3);
    }

    #[test]
    fn paper_l3_adds_average_task_error() {
        let l3 = &StructuredLoss::paper_set()[2];
        let data = [s(0.1, &[0.2, 0.4]), s(0.3, &[0.1, 0.1])];
        // avg( 0.1+0.3, 0.3+0.1 ) = 0.4
        assert!((l3.aggregate(&data) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn paper_l4_l5_l6_shapes() {
        let set = StructuredLoss::paper_set();
        let data = [s(0.1, &[0.2, 0.4]), s(0.3, &[0.1, 0.5])];
        // L4: max(0.1+0.3, 0.3+0.3) = 0.6
        assert!((set[3].aggregate(&data) - 0.6).abs() < 1e-12);
        // L5: avg(0.1+0.4, 0.3+0.5) = 0.65
        assert!((set[4].aggregate(&data) - 0.65).abs() < 1e-12);
        // L6: max(0.5, 0.8) = 0.8
        assert!((set[5].aggregate(&data) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn structured_loss_without_elements_falls_back_to_scalar() {
        for l in StructuredLoss::paper_set() {
            let data = [s(0.25, &[])];
            assert_eq!(l.aggregate(&data), 0.25, "{}", l.name());
        }
    }

    #[test]
    fn matrix_losses_compose_correctly() {
        let set = MatrixLoss::paper_set();
        let data = vec![vec![1.0, 3.0], vec![2.0, 2.0]];
        assert_eq!(set[0].aggregate(&data), 2.0); // avg(2, 2)
        assert_eq!(set[1].aggregate(&data), 2.5); // avg(3, 2)
        assert_eq!(set[2].aggregate(&data), 2.0); // max(2, 2)
        assert_eq!(set[3].aggregate(&data), 3.0); // max(3, 2)
    }

    #[test]
    fn empty_dataset_yields_zero_loss() {
        let l = StructuredLoss::new(Agg::Avg, ElementMix::AddMax, "t");
        assert_eq!(l.aggregate(&[]), 0.0);
        let m = MatrixLoss::new(Agg::Max, Agg::Avg, "t");
        assert_eq!(Loss::<Vec<f64>>::aggregate(&m, &[]), 0.0);
    }

    #[test]
    fn relative_error_guards_zero_truth() {
        assert_eq!(relative_error(10.0, 8.0), 0.2);
        assert!(relative_error(0.0, 1.0).is_finite());
    }

    #[test]
    fn perfect_simulation_gives_zero_loss_everywhere() {
        let data = [s(0.0, &[0.0, 0.0]), s(0.0, &[0.0])];
        for l in StructuredLoss::paper_set() {
            assert_eq!(l.aggregate(&data), 0.0, "{}", l.name());
        }
    }
}
