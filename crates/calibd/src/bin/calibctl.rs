//! Command-line client for the calibd daemon.
//!
//! Subcommands: `submit` a sweep job, `status` one or all jobs (text or
//! JSON, same schema `lodsel --status-json` uses for the embedded
//! ledger summary), `watch` a job's streaming progress to completion,
//! `cancel`, and `shutdown`.
//!
//! Output convention: results go to stdout, diagnostics to stderr.

use calibd::client::Client;
use calibd::proto::{JobSpec, JobState, JobStatus};
use lodsel::cli::{usage_error, BudgetFlags, Flags};
use std::process::exit;

const USAGE: &str = "\
usage: calibctl [--addr <host:port>] <command> [options]
commands:
  submit    submit a sweep job
    --family <name>          family to sweep: wf, mpi, batch, or grid
                             (default: batch)
    --fast                   shrunken experiment grid for smoke runs
    --budget-evals <n>       per-run evaluation budget (default: 60)
    --total-evals <n>        instead: one shared budget divided fairly
    --budget sh:T:E[:M]      instead: successive halving — total budget T,
                             elimination factor E, min subset size M
                             (default 1); forces a single shard, and
                             refuses --total-evals (T is the total)
    --restarts <n>           calibration restarts per unit (default: 2)
    --seed <n>               master seed (default: 42)
    --epsilon <f>            recommendation tolerance (default: 0.1)
    --shards <n>             ledger shards (default: daemon's choice)
    --tenant <name>          quota tenant (default: default)
    --watch                  stream progress until the job finishes
  status    show jobs
    --job <id>               just this job (default: all)
    --json                   one JSON line per job
  watch     stream a job's progress until it finishes
    --job <id>               required
  cancel    cancel a queued or running job
    --job <id>               required
  shutdown  ask the daemon to exit
global:
  --addr <host:port>         daemon address (default: 127.0.0.1:4550)
  --help                     print this help";

fn fail(msg: &str) -> ! {
    obs::diag!("{msg}");
    exit(1);
}

fn state_name(state: JobState) -> &'static str {
    match state {
        JobState::Queued => "queued",
        JobState::Running => "running",
        JobState::Completed => "completed",
        JobState::Failed => "failed",
        JobState::Cancelled => "cancelled",
    }
}

fn print_status_line(status: &JobStatus, json: bool) {
    if json {
        match serde_json::to_string(status) {
            Ok(line) => println!("{line}"),
            Err(e) => fail(&format!("cannot serialize status: {e}")),
        }
        return;
    }
    let runs = status
        .ledger
        .as_ref()
        .map(|l| l.runs_done)
        .unwrap_or_default();
    let mut line = format!(
        "job {} tenant={} family={} shards={} state={} runs_done={runs}",
        status.job,
        status.tenant,
        status.family,
        status.shards,
        state_name(status.state),
    );
    if let Some(chosen) = &status.chosen {
        line.push_str(&format!(" chosen={chosen}"));
    }
    if let Some(digest) = &status.digest {
        line.push_str(&format!(" digest={digest}"));
    }
    if let Some(error) = &status.error {
        line.push_str(&format!(" error={error:?}"));
    }
    println!("{line}");
}

fn watch_to_completion(client: &mut Client, job: u64) -> ! {
    let result = client.watch(job, |_seq, event| {
        if let (Some(name), Some(value)) = (
            event.get("name").and_then(|v| v.as_str()),
            event.get("value").and_then(|v| v.as_f64()),
        ) {
            obs::diag!("job {job}: {name}={value}");
        }
    });
    match result {
        Ok((state, digest, chosen)) => {
            let chosen = chosen.unwrap_or_else(|| "-".into());
            let digest = digest.unwrap_or_else(|| "-".into());
            println!(
                "job {job} {} chosen={chosen} digest={digest}",
                state_name(state)
            );
            exit(if state == JobState::Completed { 0 } else { 1 });
        }
        Err(e) => fail(&format!("watch failed: {e}")),
    }
}

fn main() {
    let mut addr = "127.0.0.1:4550".to_string();
    let mut command: Option<String> = None;
    let mut spec = JobSpec {
        family: "batch".into(),
        fast: false,
        budget_evals: 60,
        total_evals: None,
        restarts: 2,
        seed: 42,
        epsilon: 0.1,
        shards: 0,
        tenant: "default".into(),
        sh_eta: None,
        sh_min_scenarios: None,
    };
    let mut budget = BudgetFlags::new(spec.budget_evals);
    let mut job: Option<u64> = None;
    let mut json = false;
    let mut watch_after_submit = false;

    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--addr" => addr = flags.value(&flag),
            "--family" => spec.family = flags.value(&flag),
            "--fast" => spec.fast = true,
            "--restarts" => spec.restarts = flags.value(&flag),
            "--seed" => spec.seed = flags.value(&flag),
            "--epsilon" => spec.epsilon = flags.value(&flag),
            "--shards" => spec.shards = flags.value(&flag),
            "--tenant" => spec.tenant = flags.value(&flag),
            "--job" => job = Some(flags.value(&flag)),
            "--json" => json = true,
            "--watch" => watch_after_submit = true,
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other if budget.read(other, &mut flags) => {}
            other => flags.unknown(other),
        }
    }
    BudgetFlags {
        budget_evals: spec.budget_evals,
        total_evals: spec.total_evals,
        sh_eta: spec.sh_eta,
        sh_min_scenarios: spec.sh_min_scenarios,
    } = budget;

    let Some(command) = command else {
        usage_error(USAGE, "a command is required");
    };
    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => fail(&format!("cannot connect to {addr}: {e}")),
    };
    match command.as_str() {
        "submit" => match client.submit(spec) {
            Ok(id) => {
                if watch_after_submit {
                    obs::diag!("job {id} accepted, watching");
                    watch_to_completion(&mut client, id);
                }
                println!("job {id} accepted");
            }
            Err(e) => fail(&format!("submit failed: {e}")),
        },
        "status" => match client.status(job) {
            Ok(jobs) => {
                for status in &jobs {
                    print_status_line(status, json);
                }
            }
            Err(e) => fail(&format!("status failed: {e}")),
        },
        "watch" => {
            let Some(id) = job else {
                usage_error(USAGE, "watch requires --job");
            };
            watch_to_completion(&mut client, id);
        }
        "cancel" => {
            let Some(id) = job else {
                usage_error(USAGE, "cancel requires --job");
            };
            match client.cancel(id) {
                Ok(status) => print_status_line(&status, json),
                Err(e) => fail(&format!("cancel failed: {e}")),
            }
        }
        "shutdown" => match client.shutdown() {
            Ok(()) => println!("daemon shutting down"),
            Err(e) => fail(&format!("shutdown failed: {e}")),
        },
        other => usage_error(USAGE, format_args!("unknown command {other}")),
    }
}
