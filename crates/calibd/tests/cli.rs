//! `calibctl` refuses a malformed submission before it connects: no
//! daemon is listening here, so a usage error (exit 2) rather than a
//! connection failure (exit 1) shows the flags were refused first.

use std::process::Command;

#[test]
fn sh_spec_with_a_total_is_refused_in_either_order() {
    let orders: [&[&str]; 2] = [
        &["--budget", "sh:24:2", "--total-evals", "30"],
        &["--total-evals", "30", "--budget", "sh:24:2"],
    ];
    for order in orders {
        let out = Command::new(env!("CARGO_BIN_EXE_calibctl"))
            .args(["--addr", "127.0.0.1:9", "submit", "--fast"])
            .args(order)
            .output()
            .expect("calibctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{order:?}: {stderr}");
        assert!(
            stderr.starts_with("calibctl: --budget sh: carries its own total"),
            "{order:?}: {stderr}"
        );
    }
}
