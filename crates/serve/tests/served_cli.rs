//! `mf-served`'s command line and stderr: the flags it reads, and the
//! ones it does not. Callers that pass flags the daemon no longer reads
//! (`--threads`, the admission knobs that became `AdmissionConfig`
//! defaults) must still get a daemon that serves and drains, and a note
//! on stderr for each flag it ignored. Stderr also stamps each set-up
//! stage once.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use serve::proto::ServeMsg;
use serve::TenantClient;
use transport::Addr;

fn sock_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("served-cli-{}-{name}.sock", std::process::id()))
}

/// Serve one job on the daemon `child` listens for at `sock`, drain it,
/// and return its stderr once it has exited cleanly.
fn serve_one_and_drain(mut child: Child, sock: PathBuf) -> String {
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
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    stderr
}

#[test]
fn unknown_flags_are_ignored() {
    let sock = sock_path("unknown");
    let child = Command::new(env!("CARGO_BIN_EXE_mf-served"))
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
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mf-served");
    let stderr = serve_one_and_drain(child, sock);
    let ignored: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("mf-served: ignoring unknown flag "))
        .collect();
    // Each flag once; its value (`1`, `3`, `10`) is not taken for a flag.
    assert_eq!(
        ignored,
        ["--threads", "--max-weight", "--drain-grace-ms"],
        "{stderr}"
    );
}

/// A procs daemon serving one job prints each set-up stage once on
/// stderr. The fleet comes up while the daemon binds, so `listening` and
/// the fleet's stages have no fixed order between them; every other pair
/// does, and the stamps (one clock, `CLOCK_MONOTONIC`) must keep it.
#[test]
fn a_procs_daemon_stamps_each_set_up_stage_once_in_order() {
    let served = Path::new(env!("CARGO_BIN_EXE_mf-served"));
    let worker = served.with_file_name("subsolve_worker");
    assert!(
        worker.is_file(),
        "{} is missing — build the renovation crate's binaries first",
        worker.display()
    );
    let sock = sock_path("stages");
    let child = Command::new(served)
        .args(["--listen", &format!("unix:{}", sock.display())])
        .args(["--backend", "procs", "--instances", "2", "--worker-exe"])
        .arg(&worker)
        .args(["--capacity-level", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mf-served");
    let stderr = serve_one_and_drain(child, sock);
    let stamps: Vec<(&str, f64)> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("mf-served: stage "))
        .map(|l| {
            let (name, at) = l.split_once(" at ").expect("`NAME at SECONDS`");
            (name, at.parse().expect("seconds"))
        })
        .collect();
    let at = |stage: &str| {
        let found: Vec<f64> = stamps
            .iter()
            .filter(|(name, _)| *name == stage)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(found.len(), 1, "stage {stage} in {stderr}");
        found[0]
    };
    let names = [
        "main",
        "listening",
        "first-hello-ack",
        "engine-built",
        "first-done",
    ];
    assert_eq!(stamps.len(), names.len(), "{stderr}");
    let [main, listening, hello_ack, built, done] = names.map(at);
    for (earlier, later, what) in [
        (main, listening, "main before listening"),
        (main, hello_ack, "main before first-hello-ack"),
        (hello_ack, built, "first-hello-ack before engine-built"),
        (built, done, "engine-built before first-done"),
        (listening, done, "listening before first-done"),
    ] {
        assert!(earlier <= later, "{what}: {stderr}");
    }
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
