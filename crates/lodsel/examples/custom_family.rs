//! A fifth case study in under 100 lines: the M/M/1 queue of the root
//! `examples/custom_simulator.rs` at two levels of detail (with and without
//! the network round-trip), made sweepable by a `CaseStudy` spec and run to
//! a recommendation. Objectives, cache fingerprints, multi-start, ledger and
//! Pareto front all come from the generic `SimFamily` adapter.
//!
//! Run with: `cargo run --release -p lodsel --example custom_family`

use lodsel::prelude::*;
use simcal::prelude::*;

/// An observed operating point: arrival rate and mean response time.
struct Observation {
    arrival_rate: f64,
    response_time: f64,
}

/// Mean response time `1 / (mu - lambda)`, plus a fixed round-trip when
/// the level of detail models it.
struct QueueModel {
    with_rtt: bool,
}

impl Simulator for QueueModel {
    type Scenario = Observation;
    type Output = ScenarioError;

    /// Relative error of the predicted response time at one observation.
    fn run(&self, obs: &Observation, calib: &Calibration) -> ScenarioError {
        let rtt = if self.with_rtt { calib.values[1] } else { 0.0 };
        let predicted = match calib.values[0] - obs.arrival_rate {
            headroom if headroom > 0.0 => 1.0 / headroom + rtt,
            _ => f64::MAX, // saturated: the model predicts divergence
        };
        ScenarioError::scalar_only(relative_error(obs.response_time, predicted))
    }
}

/// The spec: a version is "does it model the round-trip?".
struct QueueCase;

impl CaseStudy for QueueCase {
    type Version = bool;
    type Sim = QueueModel;
    type Loss = StructuredLoss;

    fn name(&self) -> &str {
        "queue"
    }
    fn label(&self, with_rtt: &bool) -> String {
        if *with_rtt { "mm1+rtt" } else { "mm1" }.into()
    }
    fn space(&self, with_rtt: &bool) -> ParameterSpace {
        // Above every observed arrival rate: no candidate saturates.
        let (lo, hi) = (111.0, 300.0);
        let space = ParameterSpace::new().with("service_rate", ParamKind::Continuous { lo, hi });
        match with_rtt {
            true => space.with("rtt", ParamKind::Continuous { lo: 0.0, hi: 0.1 }),
            false => space,
        }
    }
    fn simulator(&self, &with_rtt: &bool) -> QueueModel {
        QueueModel { with_rtt }
    }
    fn describe(&self, tag: &str, obs: &Observation, parts: &mut Vec<String>) {
        let (rate, time) = (obs.arrival_rate.to_bits(), obs.response_time.to_bits());
        parts.push(format!("{tag}|{rate:016x}|{time:016x}"));
    }
    fn judge(&self, sim: &QueueModel, _: &Observation, out: &ScenarioError) -> (f64, u64) {
        // The error `run` reported; cost axis: one term per modelled effect.
        (out.scalar, 1 + u64::from(sim.with_rtt))
    }
}

fn main() {
    // The real system: service_rate = 120 req/s behind a 3 ms round-trip.
    let observe = |arrival_rate: f64| Observation {
        arrival_rate,
        response_time: 1.0 / (120.0 - arrival_rate) + 0.003,
    };
    let split = Split::single(
        [20.0, 50.0, 80.0, 100.0, 110.0].map(observe).into(),
        [35.0, 65.0, 90.0, 105.0].map(observe).into(),
    );
    let loss = StructuredLoss::new(Agg::Avg, ElementMix::Ignore, "L1");
    let family = SimFamily::from_splits(QueueCase, vec![false, true], vec![split], loss, "L1");

    let config = SweepConfig::per_run(Budget::Evaluations(120), 2, 11);
    let outcome = run_sweep(&family, &config, None);
    let recommendation = outcome.recommendation.expect("a complete sweep recommends");
    print!("{}", render_recommendation(&recommendation));
}
