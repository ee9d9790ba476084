//! One spawned `mf-served` and its worker processes: fresh socket and
//! journal directory per instance, SIGTERM drain with the report checked,
//! and a kill on every other way out.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use transport::Addr;

use crate::os::{self, Scratch};
use crate::workload::{Backend, Served, INSTANCES};

/// The real binaries under test, built by the root workspace.
pub struct Bins {
    pub served: PathBuf,
    pub worker: PathBuf,
}

impl Bins {
    /// Next to this executable: one shared target directory.
    pub fn locate() -> Result<Bins, String> {
        let dir = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .parent()
            .expect("an executable has a directory")
            .to_path_buf();
        let bins = Bins {
            served: dir.join("mf-served"),
            worker: dir.join("subsolve_worker"),
        };
        for b in [&bins.served, &bins.worker] {
            if !b.is_file() {
                return Err(format!(
                    "{} is missing — build the root workspace into the same target directory \
                     first (benchmark/run.sh does)",
                    b.display()
                ));
            }
        }
        Ok(bins)
    }
}

/// What `mf-served` printed when it drained.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    pub served: u64,
    pub rejected: u64,
    pub orphaned: u64,
    pub peak_in_system: u64,
}

pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: Addr,
    _scratch: Scratch,
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Spawn the workload's daemon on a fresh Unix socket (and journal
    /// directory) and wait until it listens.
    pub fn spawn(bins: &Bins, w: &Served, capacity_level: u32) -> Result<Daemon, String> {
        let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
        let sock = scratch.path().join("s");
        let mut cmd = Command::new(&bins.served);
        cmd.arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .args(["--threads", "1", "--backend", w.backend.name()])
            .args(["--capacity-level", &capacity_level.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if w.backend == Backend::Procs {
            cmd.args(["--instances", &INSTANCES.to_string()])
                .arg("--worker-exe")
                .arg(&bins.worker);
        }
        if w.journal {
            cmd.arg("--journal").arg(scratch.path().join("journal"));
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bins.served.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let listening = stdout.read_line(&mut line).map_err(|e| e.to_string());
        if !matches!(listening, Ok(n) if n > 0 && line.contains("listening on")) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("mf-served did not come up: {line:?} {listening:?}"));
        }
        Ok(Daemon {
            child,
            stdout,
            addr: Addr::Unix(sock),
            _scratch: scratch,
        })
    }

    /// SIGTERM, then require a clean drain: exit 0 and the report line
    /// saying so. Anything else fails the run.
    pub fn drain(mut self) -> Result<DrainReport, String> {
        os::kill(self.child.id(), os::SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(s) => break s,
                None if Instant::now() > deadline => {
                    return Err("mf-served ignored SIGTERM for 30 s".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let mut out = String::new();
        for line in self.stdout.by_ref().lines() {
            out.push_str(&line.map_err(|e| e.to_string())?);
            out.push('\n');
        }
        let report = parse_drain(&out)?;
        if !status.success() {
            return Err(format!("mf-served exited {status} after SIGTERM:\n{out}"));
        }
        Ok(report)
    }
}

impl Drop for Daemon {
    /// The error and panic path; after a successful [`Daemon::drain`] the
    /// tree is already gone and this finds nothing to kill.
    fn drop(&mut self) {
        for pid in os::descendants(self.child.id()) {
            os::kill(pid, os::SIGKILL);
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Parse `mf-served: drained — S served, R rejected, O orphaned, peak P in
/// system, clean=true`.
fn parse_drain(out: &str) -> Result<DrainReport, String> {
    let line = out
        .lines()
        .find(|l| l.contains("drained"))
        .ok_or_else(|| format!("no drain report in mf-served output:\n{out}"))?;
    if !line.contains("clean=true") {
        return Err(format!("mf-served did not drain cleanly: {line}"));
    }
    let words: Vec<&str> = line
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|w| !w.is_empty())
        .collect();
    let before = |label: &str| -> Result<u64, String> {
        words
            .iter()
            .position(|w| *w == label)
            .and_then(|i| words.get(i.checked_sub(1)?))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("no count before {label:?} in: {line}"))
    };
    let peak = words
        .iter()
        .position(|w| *w == "peak")
        .and_then(|i| words.get(i + 1))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no peak in: {line}"))?;
    Ok(DrainReport {
        served: before("served")?,
        rejected: before("rejected")?,
        orphaned: before("orphaned")?,
        peak_in_system: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::parse_drain;

    #[test]
    fn drain_report_parses_and_demands_clean() {
        let ok = "mf-served: drained — 11042 served, 3 rejected, 0 orphaned, peak 16 in system, \
                  clean=true\nmf-served:   tenant t0 weight  1  accepted 1 served 1\n";
        let r = parse_drain(ok).unwrap();
        assert_eq!(
            (r.served, r.rejected, r.orphaned, r.peak_in_system),
            (11042, 3, 0, 16)
        );
        assert!(parse_drain(&ok.replace("clean=true", "clean=false")).is_err());
        assert!(parse_drain("mf-served: listening on unix:x\n").is_err());
    }
}
