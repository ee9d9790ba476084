//! The little the benchmark needs from the operating system: signals,
//! the process tree under `/proc`, peak resident memory, and a scratch
//! directory that disappears with its owner.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

pub const SIGTERM: i32 = 15;
pub const SIGKILL: i32 = 9;

/// `kill(2)`; the standard library links libc, so no crate is needed.
pub fn kill(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: kill(2) takes two integers and touches no memory of ours; a
    // stale pid yields ESRCH, which is the outcome we want to ignore.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Parent pid of `pid`, from `/proc/<pid>/stat` (the command name may
/// hold spaces and parentheses, so parse after the last `)`).
fn parent_of(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after = &stat[stat.rfind(')')? + 1..];
    after.split_whitespace().nth(1)?.parse().ok()
}

/// Every live descendant of `root`, children before grandchildren.
pub fn descendants(root: u32) -> Vec<u32> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            if let Some(pid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            {
                if let Some(ppid) = parent_of(pid) {
                    edges.push((ppid, pid));
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut frontier = vec![root];
    while let Some(p) = frontier.pop() {
        for &(ppid, pid) in &edges {
            if ppid == p {
                out.push(pid);
                frontier.push(pid);
            }
        }
    }
    out
}

/// SIGKILL everything this process has spawned, directly or not. Called
/// on every way out, so a failed run cannot leave an `mf-served` or a
/// `subsolve_worker` behind to poison the next one.
pub fn kill_descendants() {
    for pid in descendants(std::process::id()) {
        kill(pid, SIGKILL);
    }
}

/// Peak resident set (`VmHWM`) of `pid` in kB, if it is still alive.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` summed over `root` and its descendants, MB — a daemon and its
/// worker processes. A high-water mark only ever rises.
pub fn tree_hwm_mb(root: u32) -> Option<f64> {
    let kb: Vec<u64> = std::iter::once(root)
        .chain(descendants(root))
        .filter_map(vm_hwm_kb)
        .collect();
    (!kb.is_empty()).then(|| kb.iter().sum::<u64>() as f64 / 1024.0)
}

/// A fresh directory under `benchmark/out/`, removed on drop. Relative to
/// the working directory so that Unix socket paths inside it stay short.
pub struct Scratch(PathBuf);

static SCRATCH_COUNTER: AtomicU32 = AtomicU32::new(0);

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(format!("benchmark/out/tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes held by the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
