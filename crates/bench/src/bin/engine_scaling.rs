//! Kernel scaling smoke test: one timed run of the dessim engine per size
//! at large concurrent-activity counts, with the kernel counters that
//! attribute its cost (heap churn, sharing re-solves, frontier size,
//! solver work, arena footprint). Prints one JSON record per run to
//! stdout; diagnostics go to stderr. Measurements live in `perf/`.
//!
//! ```text
//! engine_scaling [--sizes 10000,200000] [--workload clustered|backbone]
//!                [--max-seconds S] [--trace PATH]
//! ```
//!
//! `--max-seconds` makes the binary exit non-zero if any single run
//! exceeds the wall-clock ceiling — the CI smoke uses this together with
//! `--trace` (asserting kernel counter ratios stay below pinned bounds)
//! as a regression tripwire.

use dessim::Engine;
use lodcal_bench::workloads;
use lodsel::cli::{usage_error, Flags};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: engine_scaling [--sizes N,N,..] [--workload clustered|backbone] \
                     [--max-seconds S] [--trace PATH]";

/// Peak resident set size of this process so far, in kilobytes, from
/// `/proc/self/status` (`VmHWM`). Returns 0 where unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

fn main() {
    let mut sizes: Vec<usize> = vec![10_000, 50_000, 200_000, 1_000_000];
    let mut workload = String::from("clustered");
    let mut max_seconds: Option<f64> = None;
    let mut trace: Option<String> = None;

    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--sizes" => {
                let list: String = flags.value(&flag);
                sizes = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|e| flags.fail(format_args!("invalid {flag}: {e}")))
                    })
                    .collect();
            }
            "--workload" => workload = flags.value(&flag),
            "--max-seconds" => max_seconds = Some(flags.value(&flag)),
            "--trace" => trace = Some(flags.value(&flag)),
            other => flags.unknown(other),
        }
    }

    let recorder = trace.as_ref().map(|_| {
        let r = Arc::new(obs::TraceRecorder::new());
        obs::install(r.clone());
        r
    });

    let mut breached = false;
    for &n in &sizes {
        let (platform, batch) = match workload.as_str() {
            "clustered" => workloads::clustered(n),
            "backbone" => workloads::backbone(n),
            other => usage_error(USAGE, format_args!("invalid --workload: {other}")),
        };
        let start = Instant::now();
        let mut engine = Engine::new(platform);
        engine.add_activities(batch);
        let events = engine.run_to_completion().len();
        let c = engine.counters();
        let secs = start.elapsed().as_secs_f64();
        let events_per_sec = events as f64 / secs.max(1e-12);
        let rss = peak_rss_kb();
        println!(
            "{{ \"workload\": \"{workload}\", \"n\": {n}, \"events\": {events}, \
             \"secs\": {secs:.3}, \"events_per_sec\": {events_per_sec:.0}, \
             \"peak_rss_kb\": {rss}, \"heap_reinserts\": {}, \"sharing_resolves\": {}, \
             \"frontier_links\": {}, \"solver_visits\": {}, \"arena_bytes\": {} }}",
            c.heap_reinserts, c.sharing_resolves, c.frontier_links, c.solver_visits, c.arena_bytes
        );
        if let Some(cap) = max_seconds {
            if secs > cap {
                obs::diag!("size {n} took {secs:.1}s > ceiling {cap:.1}s");
                breached = true;
            }
        }
    }

    if let (Some(path), Some(recorder)) = (&trace, recorder) {
        obs::uninstall();
        if let Err(e) = recorder.write_jsonl(std::path::Path::new(path)) {
            obs::diag!("failed to write trace {path}: {e}");
        }
    }
    if breached {
        std::process::exit(1);
    }
}
