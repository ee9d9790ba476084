//! Spawning child task-instance processes.
//!
//! The launcher describes each child as a [`SpawnSpec`] and hands it to a
//! [`Spawner`]. [`LocalSpawner`] runs it with `fork/exec` on this machine
//! (the paper's single-workstation multi-process deployment); the
//! launcher's tests substitute in-thread children through the same trait.
//! Where a child runs is not part of the spec: the child reports its own
//! host in its `Hello`.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Everything needed to start one child task-instance process.
#[derive(Debug, Clone)]
pub struct SpawnSpec {
    /// Executable to run (the worker binary).
    pub program: PathBuf,
    /// Command-line arguments.
    pub args: Vec<String>,
    /// Environment variables (`MF_WORKER_ADDR`, `MF_WORKER_INSTANCE`, …).
    pub env: Vec<(String, String)>,
}

/// A live child process handle; kills the child when dropped.
#[derive(Debug)]
pub struct ChildHandle {
    child: Option<Child>,
}

impl ChildHandle {
    /// Wrap an already-spawned child.
    pub fn new(child: Child) -> Self {
        Self { child: Some(child) }
    }

    /// A handle owning no process — for spawners whose children are not
    /// OS processes of ours (in-thread test doubles).
    pub fn detached() -> Self {
        Self { child: None }
    }

    /// OS pid, if the child is still owned.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Forcibly terminate the child (idempotent).
    pub fn kill(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
            self.child = None;
        }
    }

    /// Wait for the child to exit; returns its exit code if available.
    pub fn wait(&mut self) -> Option<i32> {
        let child = self.child.as_mut()?;
        let status = child.wait().ok()?;
        self.child = None;
        status.code()
    }

    /// The child's exit status, if it has exited (non-blocking). A
    /// detached handle's child is not ours to watch: `None`.
    pub(crate) fn exited(&mut self) -> Option<std::process::ExitStatus> {
        self.child.as_mut()?.try_wait().ok().flatten()
    }

    /// True if the child has exited (non-blocking).
    #[cfg(test)]
    fn is_dead(&mut self) -> bool {
        match self.child.as_mut() {
            None => true,
            Some(c) => matches!(c.try_wait(), Ok(Some(_))),
        }
    }
}

impl Drop for ChildHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Starts task-instance processes.
pub trait Spawner: Send + Sync {
    /// Launch the process described by `spec`.
    fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle>;
}

/// Runs children on this machine (the paper's single-workstation
/// multi-process setup).
#[derive(Debug, Default, Clone)]
pub struct LocalSpawner;

impl Spawner for LocalSpawner {
    fn spawn(&self, spec: &SpawnSpec) -> std::io::Result<ChildHandle> {
        let mut cmd = Command::new(&spec.program);
        cmd.args(&spec.args)
            .stdin(Stdio::null())
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit());
        for (k, v) in &spec.env {
            cmd.env(k, v);
        }
        Ok(ChildHandle::new(cmd.spawn()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_spawner_runs_a_real_child() {
        let spawner = LocalSpawner;
        let mut handle = spawner
            .spawn(&SpawnSpec {
                program: PathBuf::from("/bin/sh"),
                args: vec!["-c".into(), "exit 7".into()],
                env: vec![],
            })
            .unwrap();
        assert_eq!(handle.wait(), Some(7));
        assert!(handle.is_dead());
    }

    #[test]
    fn kill_is_idempotent() {
        let spawner = LocalSpawner;
        let mut handle = spawner
            .spawn(&SpawnSpec {
                program: PathBuf::from("/bin/sh"),
                args: vec!["-c".into(), "sleep 30".into()],
                env: vec![],
            })
            .unwrap();
        assert!(!handle.is_dead());
        handle.kill();
        handle.kill();
        assert!(handle.is_dead());
    }
}
