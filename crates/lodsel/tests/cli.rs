//! The `lodsel` binary's usage errors: each is one `lodsel:` line on
//! stderr, then the usage, and exit status 2 — before any sweep runs.

use std::process::Command;

/// Run `lodsel` with `args`; its exit code and the first stderr line.
fn lodsel(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lodsel"))
        .args(args)
        .output()
        .expect("lodsel runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default().to_string();
    (out.status.code(), first)
}

#[test]
fn usage_errors_share_one_style() {
    let sh_with_total = "lodsel: --budget sh: carries its own total; drop --total-evals";
    let cases: [(&[&str], &str); 6] = [
        (&["--seed"], "lodsel: missing value for --seed"),
        (
            &["--seed", "x"],
            "lodsel: invalid --seed: invalid digit found in string",
        ),
        (&["--no-such-flag"], "lodsel: unknown option --no-such-flag"),
        (
            &["--budget", "sh:24"],
            "lodsel: invalid --budget: want sh:TOTAL:ETA[:MIN], got sh:24",
        ),
        (
            &["--budget", "sh:24:2", "--total-evals", "30"],
            sh_with_total,
        ),
        (
            &["--total-evals", "30", "--budget", "sh:24:2"],
            sh_with_total,
        ),
    ];
    for (args, want) in cases {
        assert_eq!(lodsel(args), (Some(2), want.to_string()), "{args:?}");
    }
}

#[test]
fn help_goes_to_stdout_with_status_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_lodsel"))
        .arg("--help")
        .output()
        .expect("lodsel runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: lodsel"));
}
