//! The calibration-as-a-service daemon.
//!
//! Listens for `lodcal-calibd v1` JSONL frames on a TCP socket,
//! executes submitted sweeps as sharded resumable jobs under
//! `--data-dir`, and survives restarts: the job log and the per-job
//! ledger shards replay on startup, so interrupted jobs resume without
//! re-consuming budget and finish with the same outcome digest an
//! uninterrupted run would have produced.

use calibd::daemon::{Daemon, DaemonConfig};
use lodsel::cli::{usage_error, Flags};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "\
usage: calibd --data-dir <dir> [options]
  --addr <host:port>        listen address (default: 127.0.0.1:4550)
  --data-dir <dir>          durable state: job log + ledger shards (required)
  --shards <n>              default shard count per job (default: 4)
  --workers <n>             concurrent job executors (default: 2)
  --quota <n>               default per-tenant evaluation quota
                            (default: 1000000)
  --tenant-quota <name=n>   per-tenant override (repeatable)
  --help                    print this help";

fn parse_config() -> DaemonConfig {
    let mut addr = "127.0.0.1:4550".to_string();
    let mut data_dir: Option<PathBuf> = None;
    let mut shards = 4usize;
    let mut workers = 2usize;
    let mut quota = 1_000_000usize;
    let mut tenant_quotas: Vec<(String, usize)> = Vec::new();

    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--addr" => addr = flags.value(&flag),
            "--data-dir" => data_dir = Some(flags.value(&flag)),
            "--shards" => shards = flags.value(&flag),
            "--workers" => workers = flags.value(&flag),
            "--quota" => quota = flags.value(&flag),
            "--tenant-quota" => {
                let spec: String = flags.value(&flag);
                let quota = spec
                    .split_once('=')
                    .and_then(|(name, limit)| Some((name.to_string(), limit.parse().ok()?)));
                tenant_quotas.push(quota.unwrap_or_else(|| {
                    flags.fail(format_args!("invalid {flag}: want name=limit, got {spec}"))
                }));
            }
            other => flags.unknown(other),
        }
    }
    let Some(data_dir) = data_dir else {
        usage_error(USAGE, "--data-dir is required");
    };
    DaemonConfig {
        addr,
        data_dir,
        default_shards: shards.max(1),
        workers,
        default_quota: quota,
        tenant_quotas,
    }
}

fn main() {
    let config = parse_config();
    let handle = match Daemon::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            obs::diag!("cannot start daemon: {e}");
            exit(1);
        }
    };
    obs::diag!("listening on {}", handle.addr());
    handle.join();
    obs::diag!("shut down");
}
