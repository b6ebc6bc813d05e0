//! Layer probes of a traced run: each layer's own throughput figure,
//! measured from outside through `surface`, on inputs generated from the
//! seed. They do not depend on the workload, so a layer figure can be read
//! beside any workload's end-to-end numbers.

use crate::stats;
use crate::surface::{self, FamilyKind, Policy, SweepSpec, VersionCost, SURROGATES};
use crate::trace::Ctx;
use crate::workloads::Scratch;
use std::time::{Duration, Instant};

/// Per-layer values by metric name, and the per-version cost tables that
/// go to the trace file.
pub struct Probed {
    pub layer: Vec<(String, f64)>,
    pub version_costs: Vec<(FamilyKind, Vec<VersionCost>)>,
}

/// Median over five runs of a probe (`probe(run)` returns its timings), or
/// over as many as start within one second; always at least one.
fn median_of<const N: usize>(
    mut probe: impl FnMut(usize) -> Result<[f64; N], String>,
) -> Result<[f64; N], String> {
    let started = Instant::now();
    let mut runs: Vec<[f64; N]> = Vec::new();
    while runs.len() < 5 && (runs.is_empty() || started.elapsed() < Duration::from_secs(1)) {
        runs.push(probe(runs.len())?);
    }
    Ok(std::array::from_fn(|i| {
        stats::median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>())
    }))
}

fn simulators(seed: u64, ctx: Ctx, out: &mut Probed) {
    for kind in FamilyKind::ALL {
        let family = surface::family(kind, true, seed);
        let costs = surface::simulator_costs(&family, kind, ctx);
        let rate = |label: &str| {
            costs
                .iter()
                .find(|c| c.label == label)
                .map_or(0.0, |c| c.scenarios as f64 / c.secs)
        };
        let sim = kind.simulator();
        out.layer.extend([
            (
                format!("{sim}.scenarios_per_s.cheapest"),
                rate(&family.cheapest),
            ),
            (
                format!("{sim}.scenarios_per_s.richest"),
                rate(&family.richest),
            ),
            // Does lodsel's cost axis rank versions the way the clock does?
            (
                format!("{sim}.cost_rank_spearman"),
                stats::spearman(
                    &costs
                        .iter()
                        .map(|c| c.work_units as f64)
                        .collect::<Vec<_>>(),
                    &costs.iter().map(|c| c.secs).collect::<Vec<_>>(),
                ),
            ),
        ]);
        out.version_costs.push((kind, costs));
    }
}

fn optimizer(seed: u64, ctx: Ctx, out: &mut Probed) -> Result<(), String> {
    for (which, name) in SURROGATES.iter().enumerate() {
        let [fit_s, predict_s] =
            median_of(|_| Ok(surface::surrogate_fit_predict(which, 256, seed, ctx).into()))?;
        out.layer.extend([
            (format!("simcal.surrogate.{name}.fit_ms_n256"), fit_s * 1e3),
            (
                format!("simcal.surrogate.{name}.predict512_ms_n256"),
                predict_s * 1e3,
            ),
        ]);
    }
    // The GP is the default surrogate: its fit against history size.
    for n in [64, 512] {
        let [fit_s] = median_of(|_| Ok([surface::surrogate_fit_predict(0, n, seed, ctx).0]))?;
        out.layer
            .push((format!("simcal.surrogate.gp.fit_ms_n{n}"), fit_s * 1e3));
    }
    let [cholesky_s, solve_s] =
        median_of(|_| surface::cholesky_and_solve(256, seed, ctx).map(Into::into))?;
    out.layer.extend([
        ("numeric.cholesky_ms_n256".to_string(), cholesky_s * 1e3),
        ("numeric.solve_us_n256".to_string(), solve_s * 1e6),
    ]);
    Ok(())
}

fn durable(seed: u64, ctx: Ctx, out: &mut Probed) -> Result<(), String> {
    let scratch = Scratch::new("probes").map_err(|e| format!("scratch dir: {e}"))?;
    // Every run of a probe gets a directory of its own: a second run over
    // the first one's files would find its work already done.
    let dir = |probe: &str, run: usize| scratch.path().join(format!("{probe}-{run}"));
    let [cold_s, memo_hit_s, disk_hit_s] = median_of(|run| {
        let costs = surface::evaluator_costs(&dir("eval", run), seed, ctx);
        Ok([costs.cold_s, costs.memo_hit_s, costs.disk_hit_s])
    })?;
    let [store_s, open_s] = median_of(|run| {
        Ok(surface::disk_cache_costs(&dir("shard", run), 10_000, seed, ctx).into())
    })?;
    let family = surface::family(FamilyKind::Batch, true, seed);
    let spec = SweepSpec {
        policy: Policy::PerRun { evals: 20 },
        restarts: 1,
        seed,
    };
    let [append_s, ledger_open_s, merge_s] = median_of(|run| {
        let costs = surface::ledger_costs(&family, &spec, &dir("ledger", run), ctx)?;
        Ok([costs.append_s, costs.open_s, costs.merge_s])
    })?;
    out.layer.extend(
        [
            ("simcal.eval.cold_overhead_us", cold_s * 1e6),
            ("simcal.eval.memo_hit_ns", memo_hit_s * 1e9),
            ("simcal.eval.disk_hit_us", disk_hit_s * 1e6),
            ("simcal.cache.store_us", store_s * 1e6),
            ("simcal.cache.open_ms", open_s * 1e3),
            ("lodsel.ledger.append_us", append_s * 1e6),
            ("lodsel.ledger.open_ms", ledger_open_s * 1e3),
            ("lodsel.shard.merge_ms", merge_s * 1e3),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    );
    Ok(())
}

/// Run every probe. Tracing must be off in the program (`obs` uninstalled):
/// the probes measure the layers as the untraced workloads use them.
pub fn run(seed: u64, ctx: Ctx) -> Result<Probed, String> {
    let mut out = Probed {
        layer: Vec::new(),
        version_costs: Vec::new(),
    };
    simulators(seed, ctx, &mut out);
    optimizer(seed, ctx, &mut out)?;
    durable(seed, ctx, &mut out)?;
    let [span_ns] = median_of(|_| Ok([surface::disabled_span_ns(ctx)]))?;
    out.layer
        .push(("obs.disabled_span_ns".to_string(), span_ns));
    Ok(out)
}
