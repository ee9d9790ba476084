//! Run-level checkpoints: versioned, atomically-written snapshots of the
//! master's progress, from which a killed run resumes bit-identically.
//!
//! A checkpoint records everything the master's deterministic replay
//! cannot recompute for free: the run's identity (parameters + problem +
//! policy — resuming under different ones is refused), the dispatch order
//! the policy chose, and every completed [`SubsolveResult`]. On resume the
//! master re-performs its (cheap, deterministic) initialization, replays
//! the recorded results into its accounting — including the per-grid
//! sampling work, so the final [`WorkCounter`](solver::WorkCounter) is
//! indistinguishable from an uninterrupted run's — and dispatches only the
//! grids that are still missing.
//!
//! On-disk format:
//!
//! ```text
//! "MFCK"  version:u32le  frame(encode_unit(state))
//! ```
//!
//! where `frame` is the transport's CRC-32-guarded framing — a torn or
//! bit-rotted checkpoint is *detected*, not silently resumed from.
//! Writes go to a temp file in the same directory followed by an atomic
//! rename, so a crash mid-write leaves the previous checkpoint intact.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use manifold::prelude::*;
use solver::sequential::SequentialApp;
use solver::subsolve::SubsolveResult;

use crate::codec::{problem_from_unit, problem_to_unit, result_from_unit, result_to_unit};

/// Magic bytes opening every checkpoint file.
pub const MAGIC: &[u8; 4] = b"MFCK";

/// Version of the checkpoint layout; mismatches are refused, not guessed.
pub const CHECKPOINT_VERSION: u32 = 1;

const FILE_NAME: &str = "run.ckpt";

/// Atomically replace `path` with `bytes`: write a temp file in the same
/// directory (same filesystem, so the rename cannot cross devices),
/// optionally fsync it, then rename over the destination. A crash at any
/// point leaves either the previous file or the new one — never a torn
/// mixture. This is the write discipline behind both the run checkpoints
/// here and the serving layer's journal segments.
pub fn atomic_replace(path: &Path, bytes: &[u8], fsync: bool) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "atomic".to_string());
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if fsync {
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    };
    write().inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// The identity of a run — a checkpoint only resumes a run with the very
/// same identity, because everything else about the replay is derived
/// deterministically from these.
#[derive(Clone, Debug, PartialEq)]
pub struct RunKey {
    /// Coarsest-grid refinement (`argv[1]`).
    pub root: u32,
    /// Refinement above the root (`argv[2]`).
    pub level: u32,
    /// Integrator tolerance, compared by bit pattern.
    pub le_tol: f64,
    /// Whether the master mediates all data (the paper's design).
    pub data_through_master: bool,
    /// Dispatch policy name — the order is persisted too, but a policy
    /// swap would silently change windowing, so it is part of identity.
    pub policy: String,
    /// The problem instance.
    pub problem: solver::problem::Problem,
}

impl RunKey {
    /// The key of a run of `app` under the named policy.
    pub fn of(app: &SequentialApp, data_through_master: bool, policy: &str) -> RunKey {
        RunKey {
            root: app.root,
            level: app.level,
            le_tol: app.le_tol,
            data_through_master,
            policy: policy.to_string(),
            problem: app.problem,
        }
    }

    fn matches(&self, other: &RunKey) -> Result<(), String> {
        if self.root != other.root
            || self.level != other.level
            || self.le_tol.to_bits() != other.le_tol.to_bits()
            || self.data_through_master != other.data_through_master
            || self.problem != other.problem
        {
            // Name both identities so the operator can tell at a glance
            // which side to fix; a mismatch is always an error, never a
            // silent fresh start.
            return Err(format!(
                "checkpoint is for root {}, level {}, tol {:e}, data_through_master {}; \
                 this run is root {}, level {}, tol {:e}, data_through_master {} — \
                 refusing to resume a run with different parameters",
                other.root,
                other.level,
                other.le_tol,
                other.data_through_master,
                self.root,
                self.level,
                self.le_tol,
                self.data_through_master
            ));
        }
        if self.policy != other.policy {
            return Err(format!(
                "checkpoint was written under dispatch policy {:?}, this run uses {:?}",
                other.policy, self.policy
            ));
        }
        Ok(())
    }
}

/// A snapshot of the master's progress.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Identity of the run this snapshot belongs to.
    pub key: RunKey,
    /// The policy's dispatch order (indices into the natural grid order),
    /// persisted so a resumed run can verify it re-derives the same
    /// schedule position.
    pub order: Vec<usize>,
    /// Completed per-grid results, in collection order.
    pub completed: Vec<SubsolveResult>,
}

impl Checkpoint {
    /// Validate that this checkpoint belongs to the run identified by
    /// `key` with dispatch order `order`.
    pub fn validate(&self, key: &RunKey, order: &[usize]) -> MfResult<()> {
        key.matches(&self.key).map_err(MfError::App)?;
        if self.order != order {
            return Err(MfError::App(
                "checkpoint dispatch order differs from the policy's re-derived order — \
                 refusing to resume"
                    .into(),
            ));
        }
        Ok(())
    }

    fn to_unit(&self) -> Unit {
        Unit::tuple(vec![
            Unit::int(self.key.root as i64),
            Unit::int(self.key.level as i64),
            Unit::real(self.key.le_tol),
            Unit::int(self.key.data_through_master as i64),
            Unit::text(&self.key.policy),
            problem_to_unit(&self.key.problem),
            Unit::tuple(self.order.iter().map(|&i| Unit::int(i as i64)).collect()),
            Unit::tuple(self.completed.iter().map(result_to_unit).collect()),
        ])
    }

    fn from_unit(u: &Unit) -> MfResult<Checkpoint> {
        let t = u
            .as_tuple()
            .ok_or(MfError::UnitType { expected: "Tuple" })?;
        if t.len() != 8 {
            return Err(MfError::App(format!("checkpoint tuple arity {}", t.len())));
        }
        let order = t[6]
            .as_tuple()
            .ok_or(MfError::UnitType { expected: "Tuple" })?
            .iter()
            .map(|u| Ok(u.expect_int()? as usize))
            .collect::<MfResult<Vec<usize>>>()?;
        let completed = t[7]
            .as_tuple()
            .ok_or(MfError::UnitType { expected: "Tuple" })?
            .iter()
            .map(result_from_unit)
            .collect::<MfResult<Vec<SubsolveResult>>>()?;
        Ok(Checkpoint {
            key: RunKey {
                root: t[0].expect_int()? as u32,
                level: t[1].expect_int()? as u32,
                le_tol: t[2].expect_real()?,
                data_through_master: t[3].expect_int()? != 0,
                policy: t[4]
                    .as_text()
                    .ok_or(MfError::UnitType { expected: "Text" })?
                    .to_string(),
                problem: problem_from_unit(&t[5])?,
            },
            order,
            completed,
        })
    }
}

/// A directory holding at most one current checkpoint per run.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> MfResult<CheckpointStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| MfError::App(format!("checkpoint dir {}: {e}", dir.display())))?;
        Ok(CheckpointStore { dir })
    }

    /// Path of the current checkpoint file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(FILE_NAME)
    }

    /// Atomically persist `ck`: write to a temp file in the same
    /// directory, fsync, then rename over the previous checkpoint.
    pub fn save(&self, ck: &Checkpoint) -> MfResult<()> {
        let payload = transport::encode_unit_vec(&ck.to_unit())
            .map_err(|e| MfError::App(format!("checkpoint encode: {e}")))?;
        let mut bytes = Vec::with_capacity(payload.len() + 16);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&transport::frame_vec(&payload));

        atomic_replace(&self.path(), &bytes, true)
            .map_err(|e| MfError::App(format!("checkpoint save {}: {e}", self.path().display())))
    }

    /// Load the current checkpoint; `Ok(None)` when none has been written
    /// yet. Truncation, bit rot (CRC), or a version mismatch is an error.
    pub fn load(&self) -> MfResult<Option<Checkpoint>> {
        let path = self.path();
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(MfError::App(format!(
                    "checkpoint read {}: {e}",
                    path.display()
                )))
            }
        };
        let fail = |what: &str| MfError::App(format!("checkpoint {}: {what}", path.display()));
        if bytes.len() < 8 || &bytes[..4] != MAGIC {
            return Err(fail("not a checkpoint file (bad magic)"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(fail(&format!(
                "layout version {version}, this build reads {CHECKPOINT_VERSION}"
            )));
        }
        // Diagnose truncation explicitly, naming the byte offsets, before
        // handing what remains to the frame reader: "the file is 3 bytes
        // short" beats a generic EOF from somewhere inside the decoder.
        let body = &bytes[8..];
        if body.len() < 8 {
            return Err(fail(&format!(
                "truncated snapshot: the frame header needs 8 bytes at offset 8, \
                 but the file ends at offset {}",
                bytes.len()
            )));
        }
        let frame_len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
        let expected = 16 + frame_len;
        if bytes.len() < expected {
            return Err(fail(&format!(
                "truncated snapshot: the payload of {frame_len} bytes at offset 16 \
                 ends at offset {expected}, but the file ends at offset {}",
                bytes.len()
            )));
        }
        let mut r = std::io::Cursor::new(body);
        let payload = transport::read_frame(&mut r)
            .map_err(|e| fail(&format!("corrupt frame: {e}")))?
            .ok_or_else(|| fail("truncated (no frame)"))?;
        if (r.position() as usize) < bytes.len() - 8 {
            return Err(fail("trailing bytes after checkpoint frame"));
        }
        let unit = transport::decode_unit(&payload).map_err(|e| fail(&e.to_string()))?;
        Checkpoint::from_unit(&unit).map(Some)
    }

    /// Remove the current checkpoint, if any (end of a successful run).
    pub fn clear(&self) -> MfResult<()> {
        match fs::remove_file(self.path()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(MfError::App(format!(
                "checkpoint clear {}: {e}",
                self.path().display()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solver::problem::Problem;
    use solver::subsolve::SubsolveRequest;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mfck-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_checkpoint() -> Checkpoint {
        let app = SequentialApp::new(2, 1, 1e-3);
        let req = SubsolveRequest::for_grid(2, 1, 0, 1e-3, Problem::manufactured_benchmark());
        let res = solver::subsolve(&req).unwrap();
        Checkpoint {
            key: RunKey::of(&app, true, "paper-faithful"),
            order: vec![2, 0, 1],
            completed: vec![res],
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(store.load().unwrap().is_none());
        let ck = sample_checkpoint();
        store.save(&ck).unwrap();
        let back = store.load().unwrap().unwrap();
        assert_eq!(back.key, ck.key);
        assert_eq!(back.order, ck.order);
        assert_eq!(back.completed.len(), 1);
        assert_eq!(back.completed[0].values, ck.completed[0].values);
        assert_eq!(back.completed[0].work, ck.completed[0].work);
        store.clear().unwrap();
        assert!(store.load().unwrap().is_none());
        store.clear().unwrap(); // idempotent
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_detected() {
        let dir = tmp_dir("corrupt");
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(&sample_checkpoint()).unwrap();
        let mut bytes = fs::read(store.path()).unwrap();

        // Flip one payload bit: the frame CRC must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        fs::write(store.path(), &bytes).unwrap();
        let err = store.load().unwrap_err().to_string();
        assert!(err.contains("checksum") || err.contains("corrupt"), "{err}");

        // Truncation mid-frame.
        bytes[last] ^= 0x04;
        fs::write(store.path(), &bytes[..bytes.len() - 3]).unwrap();
        assert!(store.load().is_err());

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        fs::write(store.path(), &bad).unwrap();
        assert!(store.load().unwrap_err().to_string().contains("magic"));

        // Future layout version.
        let mut newer = bytes.clone();
        newer[4] = 99;
        fs::write(store.path(), &newer).unwrap();
        assert!(store.load().unwrap_err().to_string().contains("version"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_errors_name_the_offsets() {
        let dir = tmp_dir("truncated");
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(&sample_checkpoint()).unwrap();
        let bytes = fs::read(store.path()).unwrap();

        // Cut inside the frame header: the error names where the header
        // was expected and where the file actually ends.
        fs::write(store.path(), &bytes[..12]).unwrap();
        let err = store.load().unwrap_err().to_string();
        assert!(err.contains("truncated snapshot"), "{err}");
        assert!(err.contains("offset 8"), "{err}");
        assert!(err.contains("ends at offset 12"), "{err}");

        // Cut inside the payload: the error names the payload's declared
        // extent and the file's actual end.
        fs::write(store.path(), &bytes[..bytes.len() - 5]).unwrap();
        let err = store.load().unwrap_err().to_string();
        assert!(err.contains("truncated snapshot"), "{err}");
        assert!(err.contains("offset 16"), "{err}");
        assert!(
            err.contains(&format!("ends at offset {}", bytes.len() - 5)),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_key_resume_is_an_error_not_a_fresh_start() {
        use crate::{run_concurrent_opts, RunMode, RunOpts};
        use std::sync::Arc;

        let dir = tmp_dir("foreign-resume");
        // A finished level-1 run leaves its checkpoint behind (it would
        // normally be cleared, so plant one explicitly).
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(&sample_checkpoint()).unwrap();

        // Resuming a *different* problem from it must fail loudly, naming
        // both parameter sets — silently starting fresh would hide that
        // the operator pointed at the wrong directory.
        let other = SequentialApp::new(2, 2, 1e-3);
        let opts = RunOpts {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RunOpts::default()
        };
        let err = run_concurrent_opts(
            &other,
            &RunMode::Parallel,
            true,
            Arc::new(protocol::PaperFaithful),
            &opts,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("different parameters"), "{err}");
        assert!(err.contains("level 1"), "checkpoint's own level: {err}");
        assert!(err.contains("level 2"), "this run's level: {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parent_eight_field_checkpoint_resumes_bit_identically() {
        use crate::{run_concurrent, run_concurrent_opts, RunMode, RunOpts};
        use chaos::{FaultKind, FaultPlan};
        use std::sync::Arc;

        let app = SequentialApp::new(2, 2, 1e-3);
        let seq = app.run().unwrap();
        let uninterrupted = run_concurrent(&app, &RunMode::Parallel, true).unwrap();
        let run = |opts: &RunOpts| {
            let policy = Arc::new(protocol::PaperFaithful);
            run_concurrent_opts(&app, &RunMode::Parallel, true, policy, opts)
        };

        // Kill the master after two results to leave a real checkpoint.
        let dir = tmp_dir("parent-8-field");
        let store = CheckpointStore::new(&dir).unwrap();
        let killed = RunOpts {
            faults: Some(FaultPlan::new(2).push(FaultKind::MasterKill { at_result: 2 })),
            checkpoint_dir: Some(dir.clone()),
            ..RunOpts::default()
        };
        assert!(run(&killed).is_err());
        let ck = store.load().unwrap().unwrap();
        assert_eq!(ck.completed.len(), 2);

        // Rewrite it the way the parent saved it: every work tuple carries
        // an 8th field, the retired batched-RHS count.
        let mut state = ck.to_unit().as_tuple().unwrap().to_vec();
        let completed = state[7].as_tuple().unwrap().iter().map(|r| {
            let mut r = r.as_tuple().unwrap().to_vec();
            let mut work = r[5].as_tuple().unwrap().to_vec();
            work.push(Unit::int(0));
            r[5] = Unit::tuple(work);
            Unit::tuple(r)
        });
        state[7] = Unit::tuple(completed.collect());
        let payload = transport::encode_unit_vec(&Unit::tuple(state)).unwrap();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&transport::frame_vec(&payload));
        fs::write(store.path(), &bytes).unwrap();

        let parent = store.load().unwrap().unwrap();
        assert_eq!(parent.completed, ck.completed);
        let resumed = run(&RunOpts {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RunOpts::default()
        })
        .unwrap();
        assert_eq!(resumed.result.combined, seq.combined);
        assert_eq!(resumed.result.l2_error, seq.l2_error);
        assert_eq!(resumed.result.work, uninterrupted.result.work);
        assert!(resumed
            .records
            .iter()
            .any(|r| r.message.contains("2 of 5 results restored")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_refuses_foreign_runs() {
        let ck = sample_checkpoint();
        let app = SequentialApp::new(2, 1, 1e-3);
        let key = RunKey::of(&app, true, "paper-faithful");
        ck.validate(&key, &[2, 0, 1]).unwrap();

        let other_app = SequentialApp::new(2, 2, 1e-3);
        let err = ck
            .validate(&RunKey::of(&other_app, true, "paper-faithful"), &[2, 0, 1])
            .unwrap_err();
        assert!(err.to_string().contains("different parameters"));

        let err = ck
            .validate(&RunKey::of(&app, true, "cost-aware"), &[2, 0, 1])
            .unwrap_err();
        assert!(err.to_string().contains("policy"));

        let err = ck.validate(&key, &[0, 1, 2]).unwrap_err();
        assert!(err.to_string().contains("order"));
    }
}
