//! The names every later issue uses. `BENCHMARK.json` lists the same names
//! (a unit test holds the two together).

/// An end-to-end metric: something a user of the system sees. Lower is
/// better for all of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the other side's value by which the metric may be worse
    /// before `aa` (and, for gated metrics, the driver) calls it a change.
    pub bound: f64,
    /// Defined, and never 0, on every workload: gated in `BENCHMARK.json`.
    /// The others are defined on some workloads only and travel with the
    /// per-layer metrics of a traced run.
    pub everywhere: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        everywhere: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        everywhere: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.15,
        everywhere: true,
    },
    EndToEnd {
        name: "wall_tail_s",
        unit: "s",
        bound: 0.15,
        everywhere: false,
    },
    EndToEnd {
        name: "rerun_s",
        unit: "s",
        bound: 0.15,
        everywhere: false,
    },
    EndToEnd {
        name: "evals_to_recommendation",
        unit: "count",
        bound: 0.0,
        everywhere: false,
    },
    EndToEnd {
        name: "recommended_error_pct",
        unit: "%",
        bound: 0.02,
        everywhere: false,
    },
    EndToEnd {
        name: "failed_fraction",
        unit: "ratio",
        bound: 0.0,
        everywhere: false,
    },
];

/// Per-layer metrics, `(name, unit)`: what a traced run prints, every one
/// of them on every workload (0 where the workload does not touch the
/// layer or the metric is not defined for it).
pub const PER_LAYER: &[(&str, &str)] = &[
    // End-to-end metrics that are not defined on every workload.
    ("wall_tail_s", "s"),
    ("wall_tail_percentile", "%"),
    ("rerun_s", "s"),
    ("evals_to_recommendation", "count"),
    ("recommended_error_pct", "%"),
    ("failed_fraction", "ratio"),
    // dessim: the workload's own kernel run (kernel_*), or the kernel
    // events behind one evaluation (sweeps).
    ("dessim.events_per_s", "1/s"),
    ("dessim.resolves_per_event", "ratio"),
    ("dessim.frontier_links_per_resolve", "ratio"),
    ("dessim.heap_reinserts_per_event", "ratio"),
    ("dessim.arena_bytes", "bytes"),
    ("dessim.add_activities_s", "s"),
    ("dessim.events_per_eval", "count"),
    // The four simulators: probes, the same on every workload.
    ("wfsim.scenarios_per_s.cheapest", "1/s"),
    ("wfsim.scenarios_per_s.richest", "1/s"),
    ("wfsim.cost_rank_spearman", "ratio"),
    ("mpisim.scenarios_per_s.cheapest", "1/s"),
    ("mpisim.scenarios_per_s.richest", "1/s"),
    ("mpisim.cost_rank_spearman", "ratio"),
    ("batchsim.scenarios_per_s.cheapest", "1/s"),
    ("batchsim.scenarios_per_s.richest", "1/s"),
    ("batchsim.cost_rank_spearman", "ratio"),
    ("gridsim.scenarios_per_s.cheapest", "1/s"),
    ("gridsim.scenarios_per_s.richest", "1/s"),
    ("gridsim.cost_rank_spearman", "ratio"),
    // simcal: where calibrate time goes (sweeps), then probes.
    ("simcal.sim_share", "ratio"),
    ("simcal.opt_ms_per_eval", "ms"),
    ("simcal.surrogate.gp.fit_ms_n256", "ms"),
    ("simcal.surrogate.gp.predict512_ms_n256", "ms"),
    ("simcal.surrogate.rf.fit_ms_n256", "ms"),
    ("simcal.surrogate.rf.predict512_ms_n256", "ms"),
    ("simcal.surrogate.et.fit_ms_n256", "ms"),
    ("simcal.surrogate.et.predict512_ms_n256", "ms"),
    ("simcal.surrogate.gbrt.fit_ms_n256", "ms"),
    ("simcal.surrogate.gbrt.predict512_ms_n256", "ms"),
    ("simcal.surrogate.gp.fit_ms_n64", "ms"),
    ("simcal.surrogate.gp.fit_ms_n512", "ms"),
    ("numeric.cholesky_ms_n256", "ms"),
    ("numeric.solve_us_n256", "us"),
    ("simcal.eval.cold_overhead_us", "us"),
    ("simcal.eval.memo_hit_ns", "ns"),
    ("simcal.eval.disk_hit_us", "us"),
    ("simcal.cache.store_us", "us"),
    ("simcal.cache.open_ms", "ms"),
    // lodsel: the sweep around the family (sweeps), the durable phases
    // (mpi_durable), then ledger and merge probes.
    ("lodsel.sweep_self_s", "s"),
    ("lodsel.calibrate_s", "s"),
    ("lodsel.evaluate_s", "s"),
    ("lodsel.cold_sweep_s", "s"),
    ("lodsel.warm_sweep_s", "s"),
    ("lodsel.ledger.resume_s", "s"),
    ("lodsel.ledger.append_us", "us"),
    ("lodsel.ledger.open_ms", "ms"),
    ("lodsel.shard.merge_ms", "ms"),
    // calibd: the workload's own jobs (batch_calibd).
    ("calibd.start_connect_ms", "ms"),
    ("calibd.submit_rtt_ms", "ms"),
    ("calibd.status_rtt_ms", "ms"),
    ("calibd.inprocess_ms_per_job", "ms"),
    ("calibd.overhead_ms_per_job", "ms"),
    ("calibd.watch_frames_per_job", "count"),
    // obs and the trace itself.
    ("obs.trace_overhead_pct", "%"),
    ("obs.disabled_span_ns", "ns"),
    ("trace.self_sum_error_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = crate::stamp::repo_root().join("BENCHMARK.json");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The entries of one top-level array of `BENCHMARK.json`, split on the
    /// closing brace (the file is flat: no nested objects inside entries).
    fn entries(manifest: &str, key: &str) -> Vec<String> {
        let start = manifest
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key}"));
        let body = &manifest[start..];
        let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
        body.split('}')
            .map(str::trim)
            .filter(|e| e.contains('{'))
            .map(str::to_string)
            .collect()
    }

    fn field(entry: &str, key: &str) -> String {
        let rest = &entry[entry.find(&format!("\"{key}\"")).unwrap() + key.len() + 2..];
        let rest = rest.trim_start_matches([':', ' ']);
        match rest.strip_prefix('"') {
            Some(quoted) => quoted[..quoted.find('"').unwrap()].to_string(),
            None => rest.split([',', '\n']).next().unwrap().trim().to_string(),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().filter(|m| m.everywhere).map(|m| m.name));
        assert!(PER_LAYER.len() <= 128);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
        // Every end-to-end metric that is not gated rides with the layers.
        for m in END_TO_END.iter().filter(|m| !m.everywhere) {
            assert!(PER_LAYER.contains(&(m.name, m.unit)), "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let manifest = manifest();
        let gated: Vec<(String, String, String)> = entries(&manifest, "end_to_end")
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "bound")))
            .collect();
        let expected: Vec<(String, String, String)> = END_TO_END
            .iter()
            .filter(|m| m.everywhere)
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.bound.to_string()))
            .collect();
        assert_eq!(gated, expected);
        for e in entries(&manifest, "end_to_end") {
            assert_eq!(field(&e, "better"), "lower");
        }

        let layers: Vec<(String, String)> = entries(&manifest, "per_layer")
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect();
        let expected: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, expected);

        let workloads: Vec<String> = entries(&manifest, "workloads")
            .iter()
            .map(|e| field(e, "name"))
            .collect();
        let expected: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, expected);
    }
}
