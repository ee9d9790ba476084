//! `mf-served`'s command line: the flags it reads, and the ones it does
//! not. Callers that pass flags the daemon no longer reads (`--threads`,
//! the admission knobs that became `AdmissionConfig` defaults) must still
//! get a daemon that serves and drains.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use serve::proto::ServeMsg;
use serve::TenantClient;
use transport::Addr;

fn sock_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("served-cli-{}-{name}.sock", std::process::id()))
}

#[test]
fn unknown_flags_are_ignored() {
    let sock = sock_path("unknown");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mf-served"))
        .args(["--listen", &format!("unix:{}", sock.display())])
        .args([
            "--threads",
            "1",
            "--max-weight",
            "3",
            "--drain-grace-ms",
            "10",
        ])
        .args(["--backend", "threads", "--capacity-level", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mf-served");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.contains("listening on"), "mf-served printed {line:?}");

    let mut c = TenantClient::connect(&Addr::Unix(sock), "cli", 1).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c.submit(1, 1, 1, 1e-3).unwrap();
    match c.recv().expect("recv") {
        ServeMsg::Done { seq, .. } => assert_eq!(seq, 1),
        other => panic!("expected Done for seq 1, got {other:?}"),
    }
    c.send(&ServeMsg::Drain).unwrap();
    while !matches!(c.recv().expect("recv"), ServeMsg::Drained { .. }) {}
    let report: Vec<String> = stdout.lines().map(Result::unwrap).collect();
    assert!(child.wait().unwrap().success(), "unclean drain: {report:?}");
}

#[test]
fn help_lists_the_ten_flags_it_reads() {
    let out = Command::new(env!("CARGO_BIN_EXE_mf-served"))
        .arg("--help")
        .output()
        .expect("run mf-served --help");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let flags: BTreeSet<&str> = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--"))
        .collect();
    let want: BTreeSet<&str> = [
        "--listen",
        "--backend",
        "--instances",
        "--worker-exe",
        "--capacity-level",
        "--queue-cap",
        "--faults",
        "--journal",
        "--journal-fsync",
        "--journal-segment-bytes",
    ]
    .into();
    assert_eq!(flags, want, "{text}");
}
