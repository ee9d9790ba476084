//! The `figures` binary's command line: `--runs N` is a flag's value, not
//! a figure number.

use std::process::Command;

#[test]
fn runs_value_is_not_taken_for_a_figure() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--runs", "1"])
        .output()
        .expect("run figures");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for fig in 2..=5 {
        assert!(
            stdout.contains(&format!("Figure {fig}:")),
            "Figure {fig} missing from:\n{stdout}"
        );
    }
}

#[test]
fn a_figure_that_does_not_exist_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["7", "--runs", "1"])
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no figure 7"));
}
