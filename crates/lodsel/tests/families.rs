//! The [`VersionFamily`] contract, checked once over all four case-study
//! families (they are one generic adapter over four specs, so one test
//! body covers them): full fidelity is the plain calibration bit for bit,
//! reduced fidelity is deterministic and really reduced, evaluation is
//! deterministic and counts its work, and the fingerprint tracks the
//! dataset. Family-specific layout facts follow.

mod common;

use common::{tiny_batch, tiny_grid, tiny_mpi, tiny_wf};
use lodsel::prelude::*;
use simcal::prelude::{Budget, CalibrationResult, Fidelity};

/// Everything of a calibration result that a sweep digests (wall-clock
/// fields legitimately differ between runs).
fn digested(r: &CalibrationResult) -> (Vec<u64>, u64, usize) {
    let values = r.calibration.values.iter().map(|v| v.to_bits()).collect();
    (values, r.loss.to_bits(), r.evaluations)
}

fn check_contract(family: &dyn VersionFamily, reseeded: &dyn VersionFamily) {
    let name = family.name().to_string();
    let units = family.units();
    assert_eq!(
        units.len() % family.version_labels().len(),
        0,
        "{name}: every version has the same units"
    );
    assert!(
        units.windows(2).all(|w| w[0].version <= w[1].version),
        "{name}: units are version-major"
    );
    let budget = Budget::Evaluations(6);
    for unit in [&units[0], &units[units.len() - 1]] {
        let plain = family.calibrate(unit, budget, 9);
        assert_eq!(
            digested(&plain),
            digested(&family.calibrate(unit, budget, 9)),
            "{name}: calibrate is deterministic"
        );
        let full = family.calibrate_at(unit, budget, 9, &Fidelity::full());
        assert_eq!(
            digested(&plain),
            digested(&full),
            "{name}: full fidelity is the plain calibration, bit for bit"
        );

        // A quarter of (at least four) training scenarios: a proper
        // subset, so the loss is over different data than the full one.
        let quarter = Fidelity {
            rung: 0,
            scenario_denom: 4,
            min_scenarios: 1,
        };
        let a = family.calibrate_at(unit, budget, 9, &quarter);
        let b = family.calibrate_at(unit, budget, 9, &quarter);
        assert_eq!(
            digested(&a),
            digested(&b),
            "{name}: reduced fidelity is deterministic"
        );
        assert_ne!(
            a.loss.to_bits(),
            plain.loss.to_bits(),
            "{name}: a quarter of the scenarios is not the full objective"
        );

        let eval = family.evaluate(unit, &plain.calibration);
        assert_eq!(eval, family.evaluate(unit, &plain.calibration));
        assert!(!eval.samples.is_empty());
        assert!(eval.samples.iter().all(|s| s.is_finite()));
        assert!(
            eval.work_units > 0,
            "{name}: evaluation must report simulation work"
        );
    }
    assert_ne!(
        family.fingerprint(),
        reseeded.fingerprint(),
        "{name}: the fingerprint must track the dataset"
    );
}

#[test]
fn all_four_families_honour_the_version_family_contract() {
    check_contract(&tiny_wf(3), &tiny_wf(4));
    check_contract(&tiny_mpi(5), &tiny_mpi(6));
    check_contract(&tiny_batch(1), &tiny_batch(2));
    check_contract(&tiny_grid(1, 4), &tiny_grid(2, 4));
    // Same data, same fingerprint.
    assert_eq!(tiny_wf(3).fingerprint(), tiny_wf(3).fingerprint());
    assert_eq!(tiny_grid(1, 4).fingerprint(), tiny_grid(1, 4).fingerprint());
}

#[test]
fn fingerprints_see_a_single_changed_observation() {
    let base = tiny_wf(3);
    let mut splits = base.splits().to_vec();
    splits[0].test[0].gt_makespan += 1.0;
    let loss = simcal::prelude::StructuredLoss::paper_set()[0].clone();
    let changed = WfFamily::new(base.versions().to_vec(), splits, loss.clone(), "L1");
    assert_ne!(base.fingerprint(), changed.fingerprint());
    // ... and the loss label.
    let relabelled = WfFamily::new(base.versions().to_vec(), base.splits().to_vec(), loss, "L2");
    assert_ne!(base.fingerprint(), relabelled.fingerprint());
}

#[test]
fn dataset_fingerprints_are_pinned() {
    // Recorded before the four adapters became one: family fingerprints
    // are part of every ledger key and cache shard name.
    assert_eq!(tiny_wf(3).fingerprint(), 0x1b90_5e9d_fead_e4fa);
    assert_eq!(tiny_mpi(5).fingerprint(), 0x8cbc_a27c_44bd_3cca);
    assert_eq!(tiny_batch(1).fingerprint(), 0x5b16_9578_e521_e7cb);
    assert_eq!(tiny_grid(42, 1).fingerprint(), 0xb78e_1fd7_a97c_477f);
    // The standalone MPI binaries share cache entries with the family
    // through this function.
    assert_eq!(
        lodsel::families::mpi::dataset_fingerprint(tiny_mpi(5).scenarios(), "L1"),
        tiny_mpi(5).fingerprint()
    );
}

#[test]
fn workflow_units_are_one_per_version_and_application() {
    let f = tiny_wf(3);
    let units = f.units();
    assert_eq!(units.len(), 2);
    assert_eq!((units[0].version, units[1].version), (0, 1));
    assert!(units.iter().all(|u| u.label.ends_with(" / montage")));
    // One sample per unit: the per-application mean.
    let r = f.calibrate(&units[0], Budget::Evaluations(4), 9);
    assert_eq!(f.evaluate(&units[0], &r.calibration).samples.len(), 1);
}

#[test]
fn mpi_judges_on_its_training_scenarios_and_detail_costs_work() {
    let f = tiny_mpi(5);
    let units = f.units();
    assert_eq!(units.len(), 2);
    assert_eq!(units[1].version, 1);
    assert_eq!(units[1].label, f.version_labels()[1]);
    let lo = f.calibrate(&units[0], Budget::Evaluations(5), 1);
    let hi = f.calibrate(&units[1], Budget::Evaluations(5), 1);
    let e_lo = f.evaluate(&units[0], &lo.calibration);
    let e_hi = f.evaluate(&units[1], &hi.calibration);
    assert_eq!(e_lo.samples.len(), f.scenarios().len());
    assert!(
        e_hi.work_units > e_lo.work_units,
        "higher detail must cost more simulation work"
    );
}

#[test]
fn batch_and_grid_have_one_unit_and_one_sample_per_trace() {
    let batch = tiny_batch(1);
    assert_eq!(batch.units().len(), 4);
    assert_eq!(batch.version_labels().len(), 4);
    let grid = tiny_grid(1, 4);
    assert_eq!(grid.units().len(), 8);
    assert_eq!(grid.version_labels().len(), 8);
    assert_eq!((grid.dim(0), grid.dim(7)), (5, 7));
    let unit = &grid.units()[0];
    let r = grid.calibrate(unit, Budget::Evaluations(4), 2);
    let eval = grid.evaluate(unit, &r.calibration);
    assert_eq!(eval.samples.len(), grid.test().len());
}

/// `evaluate_on`'s per-scenario errors and its work count, bit for bit,
/// against each family's held-out error written out from its simulator's
/// own entry point (`simulate`, or `transfer_rates` for MPI), for the
/// lowest- and highest-detail version of every `--fast` paper family at
/// a fixed calibration. Sweep digests see these bits only summarised
/// (workflow units fold a per-application mean).
#[test]
fn held_out_errors_and_work_are_the_simulators_bit_for_bit() {
    use simcal::prelude::{relative_error, Calibration, ParameterSpace};
    const SEED: u64 = 20250706;
    fn check(family: &str, eval: UnitEval, reference: Vec<(f64, u64)>) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (errors, work): (Vec<f64>, Vec<u64>) = reference.into_iter().unzip();
        assert!(!errors.is_empty(), "{family}: no held-out scenarios");
        assert_eq!(bits(&eval.samples), bits(&errors), "{family}: errors");
        assert_eq!(eval.work_units, work.iter().sum::<u64>(), "{family}: work");
    }
    fn mean_relative_error(observed: &[f64], simulated: &[f64]) -> f64 {
        let errors: Vec<f64> = observed
            .iter()
            .zip(simulated)
            .map(|(&gt, &sim)| relative_error(gt, sim))
            .collect();
        numeric::mean(&errors)
    }
    fn midpoint(space: ParameterSpace) -> Calibration {
        space.denormalize(&vec![0.5; space.dim()])
    }

    use wfsim::prelude::{spec_calibration, SimulatorVersion, WorkflowSimulator};
    let wf = WfFamily::paper(true, SEED);
    for version in [
        SimulatorVersion::lowest_detail(),
        SimulatorVersion::highest_detail(),
    ] {
        let (sim, calib) = (WorkflowSimulator::new(version), spec_calibration(version));
        for split in wf.splits() {
            let reference = split.held_out().iter().map(|s| {
                let out = sim.simulate(&s.workflow, s.n_workers, &calib);
                (relative_error(s.gt_makespan, out.makespan), out.sim_events)
            });
            let eval = evaluate_on(wf.case(), &version, split.held_out(), &calib);
            check("wf", eval, reference.collect());
        }
    }

    use mpisim::prelude::{MpiSimulator, MpiSimulatorVersion};
    let mpi = MpiFamily::paper(true, SEED);
    for version in [
        MpiSimulatorVersion::lowest_detail(),
        MpiSimulatorVersion::highest_detail(),
    ] {
        let sim = MpiSimulator::new(version);
        let calib = mpisim::prelude::spec_calibration(version);
        let reference = mpi.scenarios().iter().map(|s| {
            let rates = sim.transfer_rates(s.benchmark, s.n_nodes, &s.sizes, &calib);
            let work = sim.simulation_work(s.benchmark, s.n_nodes, &s.sizes);
            (mean_relative_error(&s.mean_rates(), &rates), work)
        });
        let eval = evaluate_on(mpi.case(), &version, mpi.scenarios(), &calib);
        check("mpi", eval, reference.collect());
    }

    use batchsim::prelude::{BatchSimulator, BatchVersion};
    let batch = BatchFamily::paper(true, SEED);
    for version in [
        BatchVersion::lowest_detail(),
        BatchVersion::highest_detail(),
    ] {
        let sim = BatchSimulator::new(version, batch.case().total_nodes);
        let calib = midpoint(version.parameter_space());
        let reference = batch.test().iter().map(|s| {
            let out = sim.simulate(&s.jobs, &calib);
            let error = mean_relative_error(&s.turnarounds, &out.turnarounds);
            (error, out.sim_events)
        });
        let eval = evaluate_on(batch.case(), &version, batch.test(), &calib);
        check("batch", eval, reference.collect());
    }

    use gridsim::prelude::{GridSimulator, GridVersion};
    let grid = GridFamily::paper(true, SEED);
    for version in [GridVersion::lowest_detail(), GridVersion::highest_detail()] {
        let sim = GridSimulator::new(version);
        let calib = midpoint(version.parameter_space());
        let reference = grid.test().iter().map(|s| {
            let out = sim.simulate(&s.workload, &calib);
            let error = mean_relative_error(&s.turnarounds, &out.turnarounds);
            (error, out.sim_events)
        });
        let eval = evaluate_on(grid.case(), &version, grid.test(), &calib);
        check("grid", eval, reference.collect());
    }
}
