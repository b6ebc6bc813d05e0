//! Search algorithms (paper §4): grid search, random search, gradient
//! descent with random restarts, and Bayesian optimization with four
//! surrogate regressors.
//!
//! Every algorithm drives a budget-enforcing [`Evaluator`]
//! and terminates when the budget is exhausted, so that different
//! algorithms can be compared fairly under the same budget — the core of
//! the paper's methodology.

mod bayesian;
mod gradient;
mod grid;
mod random;

pub use bayesian::BayesianOpt;
pub use gradient::GradientDescent;
pub use grid::GridSearch;
pub use random::RandomSearch;

use crate::budget::Evaluator;
use crate::surrogate::SurrogateKind;
use serde::{Deserialize, Serialize};

/// A calibration search algorithm.
pub trait SearchAlgorithm: Sync {
    /// Short identifier for reports (e.g. `"BO-GP"`).
    fn name(&self) -> &'static str;

    /// Search until the evaluator's budget is exhausted. The evaluator
    /// records the incumbent and the convergence trace.
    fn search(&self, evaluator: &Evaluator<'_>, seed: u64);
}

/// Points per parallel batch of GRID and RAND: scales with the pool so
/// wide machines stay saturated. This cannot change either trajectory
/// under an evaluation-count budget: the evaluated points are always a
/// prefix of a fixed enumeration (the grid's mixed-radix order, the
/// seeded rng stream), however they are batched.
fn pool_batch_size() -> usize {
    16.max(2 * rayon::current_num_threads())
}

/// The paper's algorithm menu, as a plain enum for sweeps and CLI flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Exhaustive discretized grid, resolution doubled per iteration.
    Grid,
    /// Uniform random sampling.
    Random,
    /// Random-restart finite-difference gradient descent.
    Gradient,
    /// Bayesian optimization with a Gaussian-process surrogate.
    BoGp,
    /// Bayesian optimization with a random-forest surrogate.
    BoRf,
    /// Bayesian optimization with an extra-trees surrogate.
    BoEt,
    /// Bayesian optimization with gradient-boosted quantile trees.
    BoGbrt,
}

impl AlgorithmKind {
    /// All algorithm kinds, in paper order.
    pub const ALL: [AlgorithmKind; 7] = [
        AlgorithmKind::Grid,
        AlgorithmKind::Random,
        AlgorithmKind::Gradient,
        AlgorithmKind::BoGp,
        AlgorithmKind::BoRf,
        AlgorithmKind::BoEt,
        AlgorithmKind::BoGbrt,
    ];

    /// Report name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Grid => "GRID",
            AlgorithmKind::Random => "RAND",
            AlgorithmKind::Gradient => "GRAD",
            AlgorithmKind::BoGp => "BO-GP",
            AlgorithmKind::BoRf => "BO-RF",
            AlgorithmKind::BoEt => "BO-ET",
            AlgorithmKind::BoGbrt => "BO-GBRT",
        }
    }

    /// Instantiate the algorithm (BO with its default batch size and no
    /// warm start).
    pub fn build(self) -> Box<dyn SearchAlgorithm> {
        match self {
            AlgorithmKind::Grid => Box::new(GridSearch),
            AlgorithmKind::Random => Box::new(RandomSearch),
            AlgorithmKind::Gradient => Box::new(GradientDescent),
            AlgorithmKind::BoGp => Box::new(BayesianOpt::new(SurrogateKind::GaussianProcess)),
            AlgorithmKind::BoRf => Box::new(BayesianOpt::new(SurrogateKind::RandomForest)),
            AlgorithmKind::BoEt => Box::new(BayesianOpt::new(SurrogateKind::ExtraTrees)),
            AlgorithmKind::BoGbrt => Box::new(BayesianOpt::new(SurrogateKind::Gbrt)),
        }
    }

    /// Parse a paper-notation name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "GRID" => Some(AlgorithmKind::Grid),
            "RAND" | "RANDOM" => Some(AlgorithmKind::Random),
            "GRAD" | "GRADIENT" => Some(AlgorithmKind::Gradient),
            "BO-GP" | "BOGP" => Some(AlgorithmKind::BoGp),
            "BO-RF" | "BORF" => Some(AlgorithmKind::BoRf),
            "BO-ET" | "BOET" => Some(AlgorithmKind::BoEt),
            "BO-GBRT" | "BOGBRT" => Some(AlgorithmKind::BoGbrt),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AlgorithmKind::parse("nonsense"), None);
    }

    #[test]
    fn build_produces_matching_names() {
        assert_eq!(AlgorithmKind::BoGp.build().name(), "BO-GP");
        assert_eq!(AlgorithmKind::Random.build().name(), "RAND");
        assert_eq!(AlgorithmKind::Grid.build().name(), "GRID");
        assert_eq!(AlgorithmKind::Gradient.build().name(), "GRAD");
    }

    /// One FNV-1a word over a 48-evaluation run of `algorithm` on a seeded
    /// 4-D objective: every evaluated point with its loss (sorted, since a
    /// batch runs on the pool), then each trace point's evaluation count
    /// and best loss.
    fn trajectory_word(algorithm: &dyn SearchAlgorithm) -> u64 {
        use crate::budget::Budget;
        use crate::objective::FnObjective;
        use crate::param::{Calibration, ParamKind, ParameterSpace};

        let mut rng = numeric::rng_from_seed(45);
        let centers: Vec<f64> = (0..4).map(|_| rng.unit()).collect();
        let mut space = ParameterSpace::new();
        for i in 0..4 {
            space.add(&format!("x{i}"), ParamKind::Continuous { lo: 0.0, hi: 1.0 });
        }
        let seen = std::sync::Mutex::new(Vec::new());
        let objective = FnObjective::new(space, |c: &Calibration| {
            let v = &c.values;
            let loss = v
                .iter()
                .zip(&centers)
                .map(|(x, c)| (x - c) * (x - c))
                .sum::<f64>()
                + 0.05 * (7.0 * v[0]).sin() * (3.0 * v[2]).cos();
            let mut record: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            record.push(loss.to_bits());
            seen.lock().unwrap().push(record);
            loss
        });
        let evaluator = Evaluator::new(&objective, Budget::Evaluations(48));
        algorithm.search(&evaluator, 2026);
        assert_eq!(evaluator.evaluations(), 48, "{}", algorithm.name());
        let mut records = std::mem::take(&mut *seen.lock().unwrap());
        records.sort_unstable();
        let trace = evaluator
            .trace()
            .into_iter()
            .flat_map(|p| [p.evaluations as u64, p.best_loss.to_bits()]);
        crate::cache::fnv1a_fold(records.into_iter().flatten().chain(trace))
    }

    #[test]
    fn every_algorithm_trajectory_is_pinned() {
        // Recorded while every algorithm and surrogate setting was still
        // a public field; a refactor of the menu must not move a word.
        let mut words: Vec<(String, u64)> = AlgorithmKind::ALL
            .iter()
            .map(|kind| (kind.name().to_string(), trajectory_word(&*kind.build())))
            .collect();
        for batch_size in [1, 4, 16] {
            let bo = BayesianOpt {
                batch_size,
                ..BayesianOpt::new(SurrogateKind::GaussianProcess)
            };
            words.push((format!("BO-GP/{batch_size}"), trajectory_word(&bo)));
        }
        let want: [(&str, u64); 10] = [
            ("GRID", 0x6c5c_8243_4f9d_f147),
            ("RAND", 0xaba3_41d9_d703_d5a2),
            ("GRAD", 0x4d0b_94fb_b808_4923),
            ("BO-GP", 0xc4bd_fbb7_1f51_6ee4),
            ("BO-RF", 0x590e_7d4b_e39c_196c),
            ("BO-ET", 0x8346_005b_5942_ceee),
            ("BO-GBRT", 0x0c07_e15d_2203_7984),
            ("BO-GP/1", 0x7750_c70b_1b33_0755),
            ("BO-GP/4", 0xa9d4_d928_f86b_80a0),
            ("BO-GP/16", 0xd587_d144_d5c4_ff6a),
        ];
        for ((name, word), (want_name, want_word)) in words.iter().zip(want) {
            assert_eq!(name, want_name);
            assert_eq!(*word, want_word, "{name}: {word:#018x}");
        }
    }
}
