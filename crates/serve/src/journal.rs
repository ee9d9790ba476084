//! The serving write-ahead journal: crash durability for admitted work.
//!
//! The daemon's contract without a journal is "accepted work finishes
//! unless the daemon dies" — this module removes the qualifier. Every
//! admitted `Submit` is journaled *before* the admission layer sees it,
//! and every outcome (`Done`/`Fail`/`Reject`) is journaled *before* it is
//! sent, so a SIGKILL at any instant loses at most replies that were
//! never acknowledged — and those replay on reconnect.
//!
//! ## On-disk format (layout version 2)
//!
//! A journal is a directory of numbered segments:
//!
//! ```text
//! wal-000001.seg   "MFSJ" version:u32le  frame(record)*
//! wal-000002.seg   "MFSJ" version:u32le  frame(Snapshot) frame(Tenant)*
//!                                        frame(Admit | Outcome)* frame(record)*
//! ```
//!
//! Each record is one [`Unit`] tuple encoded by [`transport::wire`] and
//! wrapped in the transport's CRC-32 frame — the same discipline as
//! [`renovation::checkpoint`] (MFCK), so bit rot is *detected* and a torn
//! tail (the one record a crash can interrupt) is truncated on recovery,
//! never misread. There are five records:
//!
//! ```text
//! (1 Tenant, name, weight, token, next_rseq, acked, failed)
//! (2 Admit, tenant, seq, root, level, tol)
//! (3 Outcome, tenant, reply)     reply: the Done/Fail/Reject message
//! (4 Ack, tenant, upto)
//! (5 Snapshot)                   forget every earlier record
//! ```
//!
//! An outcome's `reply` is the [`ServeMsg`] payload the tenant receives,
//! `seq` and `rseq` inside it, so a reply has one format. The journal
//! encodes it once, straight into the frame the tenant receives, appends
//! the payload behind the record's head in one vectored write (the CRC
//! fed over the pieces), and hands that frame to the daemon to send. What
//! it keeps of an unacknowledged reply is where the payload lies on disk,
//! `(segment, offset, length)`, not its bytes: the segment is the reply
//! store. The bytes are read back (`pread`) only when they must be sent
//! again — on a replayed `Submit` and on resume — and when a rotation
//! moves them; the live send reads no file.
//!
//! Every record fits one wire frame: one over [`transport::MAX_FRAME`]
//! is refused before it is written. So recovery reads each segment
//! through a buffered reader one frame at a time
//! ([`transport::read_frame`]), checks each reply in place as the tenant
//! will decode it, and keeps only where it lies. A segment of another
//! layout version is refused with a diagnosed error and left as it is.
//! Records append with plain `write(2)`: a page-cached write survives
//! process death (the SIGKILL threat model this layer is built for);
//! [`JournalConfig::fsync`] upgrades every append to power-loss
//! durability at the documented throughput cost. An append that fails
//! is cut from the segment again, so every offset the journal counts is
//! where its record lies.
//!
//! ## Rotation and compaction
//!
//! Once the records appended to the active segment after its snapshot
//! pass [`JournalConfig::segment_bytes`], the journal applies the record
//! that crossed the line to its state and then writes a fresh segment
//! holding the entire live state as ordinary records, built by the same
//! builders the live appends use: a bare `Snapshot` marker, one `Tenant`
//! record per tenant (name, weight, token and reply watermarks), then an
//! `Admit` per pending job and an `Outcome` per unacknowledged reply —
//! the triggering record included — and deletes the older segments. A
//! tenant record counts only the `Fail`s that are not among the outcome
//! records after it, which count themselves when they are replayed.
//! Entries the client has `Ack`ed are dropped, so the journal's size is
//! bounded by outstanding (not historical) work: the live state plus one
//! segment's worth of records. Counting from the snapshot means a live
//! state larger than `segment_bytes` rotates once per `segment_bytes`
//! appended, not again at every append.
//!
//! The records go through a buffered writer into a temporary file, which
//! is then renamed into place. Each kept reply is copied from the
//! segment it lies in, one at a time through one reused buffer, so a
//! rotation holds one reply in memory. A reply's location moves to the
//! new segment only once the rename has succeeded, and the older
//! segments are deleted only then: a crash or a failed rotation leaves
//! every reply where its location says. A failed rotation loses nothing
//! — the record that triggered it is already in the active segment — so
//! it is reported and tried again at the next append. The first segment
//! is made the same way, so no crash leaves a segment without its
//! header; a temporary file left by a crash is removed at the next open.
//!
//! ## Replay invariants
//!
//! * `rseq` — the per-tenant reply sequence — is assigned as each reply
//!   is journaled, so the serve loop's finished jobs (`Done`/`Fail`) and
//!   its admission rejections (`Reject`) interleave into one gap-free
//!   order per tenant.
//! * A seq with a journaled non-`Reject` outcome is never re-executed:
//!   re-`Submit`ting it replays the recorded outcome with its *original*
//!   `rseq`, which the client's exactly-once filter dedups. Note that
//!   gap-free `rseq` *assignment* does not make the wire gap-free: a
//!   replayed outcome keeps its old `rseq`, and a reply whose tenant is
//!   between sessions waits for the resume replay, so the client's
//!   filter tolerates out-of-order arrival (watermark + seen-ahead set)
//!   rather than assuming delivery in `rseq` order.
//! * A seq whose outcome was `Reject` may be re-admitted (that is what
//!   the backpressure retry loop does).
//! * Recovery resubmits every journaled-but-outcomeless job to a fresh
//!   engine; fault budgets are restored from the replayed `Fail` count,
//!   and vtimes restart level — a tenant cannot bank fairness credit by
//!   crash-looping the daemon.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use manifold::Unit;
use transport::frame::{self, HEADER_LEN};
use transport::wire::{self, UnitReader};

use crate::proto::{RejectReason, ReplyKind, ServeMsg};

/// Magic bytes opening every journal segment.
pub const MAGIC: &[u8; 4] = b"MFSJ";

/// Version of the journal layout; mismatches are refused, not guessed.
const JOURNAL_VERSION: u32 = 2;

/// Bytes of a segment's header: [`MAGIC`] and the version.
const SEG_HEADER_LEN: u64 = 8;

const R_TENANT: i64 = 1;
const R_ADMIT: i64 = 2;
const R_OUTCOME: i64 = 3;
const R_ACK: i64 = 4;
const R_SNAPSHOT: i64 = 5;

/// Where and how to journal.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the segments (created if missing).
    pub dir: PathBuf,
    /// `fsync` every appended record. Off by default: page-cached writes
    /// already survive SIGKILL (the serving threat model); turn this on
    /// for power-loss durability.
    pub fsync: bool,
    /// Rotate (snapshot + compact) once this many bytes have been
    /// appended to the active segment after its snapshot. Counting from
    /// the snapshot, not from the file's start, keeps a live state larger
    /// than this from rotating again at every append.
    pub segment_bytes: u64,
}

impl JournalConfig {
    /// Journal into `dir` with default knobs (no fsync, 8 MiB segments).
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            fsync: false,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// The body of a journaled reply.
#[derive(Debug, Clone, PartialEq)]
pub enum OutcomeBody {
    /// Job served; the full field rides in the journal so replay is
    /// bit-identical to first delivery.
    Done {
        /// Component grids visited.
        grids: u64,
        /// Discrete L2 error.
        l2_error: f64,
        /// Full combined solution field.
        combined: Vec<f64>,
    },
    /// Accepted but failed in the engine.
    Fail {
        /// Failure description.
        error: String,
    },
    /// Refused at admission.
    Reject {
        /// Suggested back-off.
        retry_after_ms: u64,
        /// Why.
        reason: RejectReason,
    },
}

impl OutcomeBody {
    /// The wire message delivering this outcome for request `seq` under
    /// reply sequence `rseq`.
    pub fn into_msg(self, seq: u64, rseq: u64) -> ServeMsg {
        match self {
            OutcomeBody::Done {
                grids,
                l2_error,
                combined,
            } => ServeMsg::Done {
                seq,
                rseq,
                grids,
                l2_error,
                combined,
            },
            OutcomeBody::Fail { error } => ServeMsg::Fail { seq, rseq, error },
            OutcomeBody::Reject {
                retry_after_ms,
                reason,
            } => ServeMsg::Reject {
                seq,
                rseq,
                retry_after_ms,
                reason,
            },
        }
    }

    fn kind(&self) -> ReplyKind {
        match self {
            OutcomeBody::Done { .. } => ReplyKind::Done,
            OutcomeBody::Fail { .. } => ReplyKind::Fail,
            OutcomeBody::Reject { .. } => ReplyKind::Reject,
        }
    }
}

fn invalid(e: impl Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("journal: {e}"))
}

/// A record's bytes: the head of a tuple of `fields` and `more` units,
/// then `fields`. The caller appends the `more` units, encoded.
fn record(fields: &[Unit], more: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    wire::encode_tuple_head(fields.len() + more, &mut out).map_err(invalid)?;
    for f in fields {
        wire::encode_unit(f, &mut out).map_err(invalid)?;
    }
    Ok(out)
}

fn tenant_record(t: &TenantRec) -> io::Result<Vec<u8>> {
    record(
        &[
            Unit::int(R_TENANT),
            Unit::text(&t.name),
            Unit::int(t.weight as i64),
            Unit::int(t.token as i64),
            Unit::int(t.next_rseq as i64),
            Unit::int(t.acked as i64),
            Unit::int(t.failed as i64),
        ],
        0,
    )
}

fn admit_record(tenant: &str, seq: u64, root: u32, level: u32, tol: f64) -> io::Result<Vec<u8>> {
    record(
        &[
            Unit::int(R_ADMIT),
            Unit::text(tenant),
            Unit::int(seq as i64),
            Unit::int(root as i64),
            Unit::int(level as i64),
            Unit::real(tol),
        ],
        0,
    )
}

/// An outcome record's head; the reply's payload follows it.
fn outcome_head(tenant: &str) -> io::Result<Vec<u8>> {
    record(&[Unit::int(R_OUTCOME), Unit::text(tenant)], 1)
}

fn ack_record(tenant: &str, upto: u64) -> io::Result<Vec<u8>> {
    record(
        &[Unit::int(R_ACK), Unit::text(tenant), Unit::int(upto as i64)],
        0,
    )
}

fn snapshot_record() -> io::Result<Vec<u8>> {
    record(&[Unit::int(R_SNAPSHOT)], 0)
}

/// Where a kept reply's payload lies: bytes `off..off + len` of segment
/// `seg`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Loc {
    seg: u64,
    off: u64,
    len: usize,
}

#[derive(Debug, Clone)]
enum JobState {
    Pending {
        root: u32,
        level: u32,
        tol: f64,
    },
    /// A journaled reply: its kind, and where the payload the tenant
    /// receives lies, as the journal wrote it.
    Outcome {
        rseq: u64,
        kind: ReplyKind,
        at: Loc,
    },
}

#[derive(Debug, Clone)]
struct TenantRec {
    name: String,
    weight: u32,
    token: u64,
    /// Next reply sequence to assign (first assigned is 1).
    next_rseq: u64,
    /// Highest reply sequence the client has acknowledged.
    acked: u64,
    /// Replayed `Fail` outcomes — restores the fault budget on recovery.
    failed: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Registration order — ordinals must survive restart because chaos
    /// fault plans and fair-queue tie-breaks key on them.
    tenants: Vec<TenantRec>,
    by_name: HashMap<String, usize>,
    /// `(tenant ordinal, seq)` → job state. BTreeMap so recovery re-offers
    /// in a deterministic (ordinal, seq) order.
    jobs: BTreeMap<(usize, u64), JobState>,
}

/// A record's fields, read in place from its frame payload.
struct Fields<'a>(UnitReader<'a>);

impl<'a> Fields<'a> {
    fn tuple(&mut self, what: &str) -> Result<usize, String> {
        self.0.tuple().map_err(|e| format!("{what}: {e}"))
    }

    fn int(&mut self, what: &str) -> Result<i64, String> {
        self.0.int().map_err(|e| format!("{what}: {e}"))
    }

    fn real(&mut self, what: &str) -> Result<f64, String> {
        self.0.real().map_err(|e| format!("{what}: {e}"))
    }

    fn text(&mut self, what: &str) -> Result<&'a str, String> {
        self.0.text().map_err(|e| format!("{what}: {e}"))
    }
}

impl State {
    /// Replay one record, read in place from its frame payload, which
    /// lies at byte `off` of segment `seg`: a reply is checked as the
    /// tenant will decode it and kept as where it lies.
    fn apply(&mut self, payload: &[u8], seg: u64, off: u64) -> Result<(), String> {
        let mut r = Fields(UnitReader::new(payload));
        let arity = r.tuple("record")?;
        let tag = r.int("record tag")?;
        let want = match tag {
            R_TENANT => 7,
            R_ADMIT => 6,
            R_OUTCOME | R_ACK => 3,
            R_SNAPSHOT => 1,
            other => return Err(format!("unknown journal record tag {other}")),
        };
        if arity != want {
            return Err(format!("record {tag} has {arity} fields, not {want}"));
        }
        match tag {
            R_TENANT => {
                let tenant = TenantRec {
                    name: r.text("tenant")?.to_string(),
                    weight: r.int("weight")?.max(0) as u32,
                    token: r.int("token")? as u64,
                    next_rseq: r.int("next rseq")? as u64,
                    acked: r.int("acked")? as u64,
                    failed: r.int("failed")? as u64,
                };
                self.add_tenant(tenant);
            }
            R_ADMIT => {
                let idx = self.tenant(r.text("tenant")?)?;
                let seq = r.int("seq")? as u64;
                let job = JobState::Pending {
                    root: r.int("root")?.max(0) as u32,
                    level: r.int("level")?.max(0) as u32,
                    tol: r.real("tol")?,
                };
                self.jobs.insert((idx, seq), job);
            }
            R_OUTCOME => {
                let idx = self.tenant(r.text("tenant")?)?;
                let start = r.0.position();
                let (seq, rseq, kind) =
                    ServeMsg::check_reply(&mut r.0).map_err(|e| format!("reply: {e}"))?;
                let at = Loc {
                    seg,
                    off: off + start as u64,
                    len: r.0.position() - start,
                };
                self.outcome(idx, seq, rseq, kind, at);
            }
            R_ACK => {
                let idx = self.tenant(r.text("tenant")?)?;
                self.ack(idx, r.int("ack")? as u64);
            }
            _ => *self = State::default(),
        }
        r.0.finish().map_err(|e| format!("record {tag}: {e}"))
    }

    fn add_tenant(&mut self, tenant: TenantRec) {
        self.by_name.insert(tenant.name.clone(), self.tenants.len());
        self.tenants.push(tenant);
    }

    fn tenant(&self, name: &str) -> Result<usize, String> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| format!("record for unregistered tenant {name:?}"))
    }

    fn outcome(&mut self, idx: usize, seq: u64, rseq: u64, kind: ReplyKind, at: Loc) {
        let tn = &mut self.tenants[idx];
        tn.next_rseq = tn.next_rseq.max(rseq.saturating_add(1));
        if kind == ReplyKind::Fail {
            tn.failed = tn.failed.saturating_add(1);
        }
        self.jobs
            .insert((idx, seq), JobState::Outcome { rseq, kind, at });
    }

    /// Raise the ack watermark and drop the outcomes it covers — the
    /// in-memory side of compaction (the on-disk side happens at the next
    /// rotation).
    fn ack(&mut self, idx: usize, upto: u64) {
        let tn = &mut self.tenants[idx];
        if upto <= tn.acked {
            return;
        }
        tn.acked = upto;
        self.jobs.retain(|(t, _), s| {
            *t != idx
                || match s {
                    JobState::Pending { .. } => true,
                    JobState::Outcome { rseq, .. } => *rseq > upto,
                }
        });
    }

    /// The live state as records, each built as a live append builds it:
    /// the `Snapshot` marker, every tenant, then every job's `Admit` or
    /// `Outcome`. A tenant record leaves out the tenant's live `Fail`s:
    /// their outcome records count them when replayed. The records start
    /// at byte `pos` of their segment, and `read` fills a buffer with a
    /// kept reply's bytes, which go through one reused buffer. Returns
    /// the offset each reply is written at, in job order.
    fn write_records(
        &self,
        w: &mut impl Write,
        mut pos: u64,
        mut read: impl FnMut(Loc, &mut [u8]) -> io::Result<()>,
    ) -> io::Result<Vec<u64>> {
        // Write one record; the offset its body lands at.
        let mut put = |head: &[u8], body: &[u8]| -> io::Result<u64> {
            frame::write_frame_parts(w, head, body)?;
            let body_at = pos + (HEADER_LEN + head.len()) as u64;
            pos = body_at + body.len() as u64;
            Ok(body_at)
        };
        put(&snapshot_record()?, &[])?;
        for (idx, t) in self.tenants.iter().enumerate() {
            let live_fails = self
                .jobs
                .range((idx, 0)..=(idx, u64::MAX))
                .filter(|(_, s)| {
                    matches!(
                        s,
                        JobState::Outcome {
                            kind: ReplyKind::Fail,
                            ..
                        }
                    )
                })
                .count() as u64;
            let t = TenantRec {
                failed: t.failed.saturating_sub(live_fails),
                ..t.clone()
            };
            put(&tenant_record(&t)?, &[])?;
        }
        let mut moved = Vec::new();
        let mut reply = Vec::new();
        for (&(idx, seq), job) in &self.jobs {
            let tenant = &self.tenants[idx].name;
            match job {
                JobState::Pending { root, level, tol } => {
                    put(&admit_record(tenant, seq, *root, *level, *tol)?, &[])?;
                }
                JobState::Outcome { at, .. } => {
                    reply.resize(at.len, 0);
                    read(*at, &mut reply)?;
                    moved.push(put(&outcome_head(tenant)?, &reply)?);
                }
            }
        }
        Ok(moved)
    }
}

/// What [`Journal::open`] recovered from disk — the daemon feeds this
/// back into its admission layer before accepting connections.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// `(name, weight, replayed Fail count)` in original registration
    /// order, so re-registration reproduces the ordinals.
    pub tenants: Vec<(String, u32, u64)>,
    /// Jobs admitted but without a journaled outcome: resubmit these.
    pub pending: Vec<PendingJob>,
    /// Unacknowledged outcomes waiting for their tenants to reconnect.
    pub unacked_outcomes: usize,
}

/// One journaled-but-unfinished job to re-offer on recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// Owning tenant.
    pub tenant: String,
    /// Tenant-chosen sequence number.
    pub seq: u64,
    /// Root refinement.
    pub root: u32,
    /// Levels above root.
    pub level: u32,
    /// Integrator tolerance.
    pub tol: f64,
}

/// Outcome of [`Journal::register`].
#[derive(Debug)]
pub struct Resume {
    /// The tenant's stable resume token (mint or existing).
    pub token: u64,
    /// Journaled replies above the client's watermark, in `rseq` order,
    /// each read back from disk as the frame the tenant receives — queue
    /// these to the session before processing anything else on it.
    pub replay: Vec<Vec<u8>>,
}

/// Outcome of [`Journal::admit`].
#[derive(Debug)]
pub enum Admit {
    /// Journaled; hand the job to admission.
    New,
    /// Already admitted and still in flight — the reply will come; drop
    /// this duplicate on the floor.
    DuplicatePending,
    /// A terminal outcome is already journaled: resend it, read back
    /// from disk as the frame the tenant receives (original `rseq`, so
    /// the client's dedup decides), instead of re-executing.
    Replay(Vec<u8>),
}

struct Inner {
    cfg: JournalConfig,
    state: State,
    /// The active segment, open for reading too: kept replies are read
    /// back from it.
    file: File,
    seg_index: u64,
    seg_bytes: u64,
    /// Bytes of the active segment its snapshot (or bare header) took
    /// when it began: rotation waits for `segment_bytes` more.
    seg_base: u64,
    token_nonce: u64,
}

/// The write-ahead journal. All methods are `&self` behind one internal
/// lock; in the daemon the serve loop is the only caller.
pub struct Journal {
    inner: Mutex<Inner>,
}

fn seg_name(index: u64) -> String {
    format!("wal-{index:06}.seg")
}

fn seg_header() -> Vec<u8> {
    let mut h = Vec::with_capacity(SEG_HEADER_LEN as usize);
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    h
}

/// Make segment `index` of `cfg.dir`: write its header and then what
/// `body` writes through a buffered writer into a temporary file, and
/// rename that into place, so a crash leaves no segment or a whole one.
/// Returns the file, open for reading too and positioned at its end for
/// appends, its length, and what `body` returned.
fn create_segment<T>(
    cfg: &JournalConfig,
    index: u64,
    body: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
) -> io::Result<(File, u64, T)> {
    let path = cfg.dir.join(seg_name(index));
    let tmp = cfg.dir.join(format!("{}.tmp", seg_name(index)));
    let write = || {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut out = BufWriter::new(file);
        out.write_all(&seg_header())?;
        let made = body(&mut out)?;
        let mut file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        if cfg.fsync {
            file.sync_all()?;
        }
        let end = file.stream_position()?;
        fs::rename(&tmp, &path)?;
        Ok((file, end, made))
    };
    write().inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Replay segment `seg` of `dir` into `state`, one frame at a time; the
/// length of its header and whole records. In the `last` segment a
/// record that fails to read is the torn tail and ends the replay;
/// anywhere else it is fatal.
fn replay_segment(dir: &Path, seg: u64, last: bool, state: &mut State) -> io::Result<u64> {
    let path = dir.join(seg_name(seg));
    let bad = |what: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal segment {}: {what}", path.display()),
        )
    };
    let mut r = BufReader::new(File::open(&path)?);
    let mut header = [0u8; SEG_HEADER_LEN as usize];
    if r.read_exact(&mut header).is_err() || header[..4] != MAGIC[..] {
        return Err(bad("not a journal segment (bad magic)".into()));
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version != JOURNAL_VERSION {
        return Err(bad(format!(
            "layout version {version}, this build reads {JOURNAL_VERSION}"
        )));
    }
    let mut good = SEG_HEADER_LEN;
    loop {
        match frame::read_frame(&mut r) {
            Ok(Some(payload)) => {
                let at = good + HEADER_LEN as u64;
                state
                    .apply(&payload, seg, at)
                    .map_err(|e| bad(format!("record replay: {e}")))?;
                good = at + payload.len() as u64;
            }
            Ok(None) => return Ok(good),
            Err(e) if last => {
                // The one record a crash can tear is the last append of
                // the final segment: drop it. The write it guarded was
                // never acknowledged.
                eprintln!(
                    "journal: truncating torn tail of {} at byte {good} ({e})",
                    path.display()
                );
                return Ok(good);
            }
            Err(e) => {
                return Err(bad(format!(
                    "corrupt record at byte {good} of a non-final segment: {e}"
                )))
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Journal {
    /// Open (or create) the journal in `cfg.dir`, replaying any existing
    /// segments. Returns the journal plus what it recovered.
    pub fn open(cfg: JournalConfig) -> io::Result<(Journal, Recovery)> {
        fs::create_dir_all(&cfg.dir)?;
        let (mut segs, mut leftovers) = (Vec::new(), Vec::new());
        for entry in fs::read_dir(&cfg.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(rest) = name.strip_prefix("wal-") else {
                continue;
            };
            if let Some(idx) = rest
                .strip_suffix(".seg")
                .and_then(|i| i.parse::<u64>().ok())
            {
                segs.push(idx);
            } else if rest.ends_with(".seg.tmp") {
                leftovers.push(path);
            }
        }
        segs.sort_unstable();

        let mut state = State::default();
        let mut len = 0;
        for &idx in &segs {
            len = replay_segment(&cfg.dir, idx, Some(&idx) == segs.last(), &mut state)?;
        }
        // A segment a crash left half made was never renamed into place,
        // so it holds nothing the journal counts on.
        for path in leftovers {
            let _ = fs::remove_file(path);
        }
        let (file, seg_index, seg_bytes) = match segs.last() {
            None => {
                let (file, len, ()) = create_segment(&cfg, 1, |_| Ok(()))?;
                (file, 1, len)
            }
            Some(&last) => {
                let f = OpenOptions::new()
                    .read(true)
                    .append(true)
                    .open(cfg.dir.join(seg_name(last)))?;
                if f.metadata()?.len() > len {
                    f.set_len(len)?;
                }
                (f, last, len)
            }
        };

        let recovery = Recovery {
            tenants: state
                .tenants
                .iter()
                .map(|t| (t.name.clone(), t.weight, t.failed))
                .collect(),
            pending: state
                .jobs
                .iter()
                .filter_map(|(&(idx, seq), s)| match s {
                    JobState::Pending { root, level, tol } => Some(PendingJob {
                        tenant: state.tenants[idx].name.clone(),
                        seq,
                        root: *root,
                        level: *level,
                        tol: *tol,
                    }),
                    JobState::Outcome { .. } => None,
                })
                .collect(),
            unacked_outcomes: state
                .jobs
                .values()
                .filter(|s| matches!(s, JobState::Outcome { .. }))
                .count(),
        };
        let token_nonce = {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            t ^ ((std::process::id() as u64) << 32)
        };
        Ok((
            Journal {
                inner: Mutex::new(Inner {
                    cfg,
                    state,
                    file,
                    seg_index,
                    seg_bytes,
                    seg_base: SEG_HEADER_LEN,
                    token_nonce,
                }),
            },
            recovery,
        ))
    }

    /// Register `tenant` (or resume it). A nonzero token must match the
    /// journal's record. `token == 0` means "fresh": it is honoured for
    /// an unknown tenant, and for a known tenant *only* while that
    /// tenant has no journaled activity — the interrupted-handshake
    /// window, where a crash between journaling the registration and
    /// delivering `Welcome` left the client tokenless. Once the tenant
    /// has any journaled job, outcome, or ack, a tokenless `Hello` is
    /// refused: handing out the real token (and the unacked replay)
    /// to any connection that merely knows the name would let it steal
    /// the session. `last_reply` acknowledges every reply at or below
    /// it, and must not exceed the highest reply sequence the daemon
    /// ever issued — a forged watermark would compact away replies the
    /// legitimate client never received. A reply that cannot be read
    /// back refuses the resume too.
    pub fn register(
        &self,
        tenant: &str,
        weight: u32,
        token: u64,
        last_reply: u64,
    ) -> Result<Resume, String> {
        let mut g = self.inner.lock().unwrap();
        let inner = &mut *g;
        match inner.state.by_name.get(tenant).copied() {
            Some(idx) => {
                let tn = &inner.state.tenants[idx];
                let known = tn.token;
                if token != 0 && token != known {
                    return Err(format!(
                        "resume token {token:#x} does not match the journal's record for \
                         tenant {tenant:?} — refusing to resume"
                    ));
                }
                if token == 0 {
                    let started = tn.next_rseq > 1
                        || tn.acked > 0
                        || inner
                            .state
                            .jobs
                            .range((idx, 0)..=(idx, u64::MAX))
                            .next()
                            .is_some();
                    if started {
                        return Err(format!(
                            "tenant {tenant:?} has journaled history; resuming it requires \
                             its token — refusing a tokenless hello"
                        ));
                    }
                }
                if last_reply >= inner.state.tenants[idx].next_rseq {
                    return Err(format!(
                        "last_reply {last_reply} acknowledges replies the daemon never \
                         issued (next reply sequence is {}) — refusing",
                        inner.state.tenants[idx].next_rseq
                    ));
                }
                if last_reply > inner.state.tenants[idx].acked {
                    inner
                        .append_ack(idx, last_reply)
                        .map_err(|e| format!("journal ack: {e}"))?;
                }
                let mut kept: Vec<(u64, u64, Loc)> = inner
                    .state
                    .jobs
                    .range((idx, 0)..=(idx, u64::MAX))
                    .filter_map(|(&(_, seq), s)| match *s {
                        JobState::Outcome { rseq, at, .. } if rseq > last_reply => {
                            Some((rseq, seq, at))
                        }
                        _ => None,
                    })
                    .collect();
                kept.sort_unstable_by_key(|&(rseq, ..)| rseq);
                let replay = kept
                    .into_iter()
                    .map(|(rseq, seq, at)| inner.reply_frame(seq, rseq, at))
                    .collect::<io::Result<_>>()
                    .map_err(|e| format!("journal replay: {e}"))?;
                Ok(Resume {
                    token: known,
                    replay,
                })
            }
            None => {
                if token != 0 {
                    return Err(format!(
                        "resume token {token:#x} presented for tenant {tenant:?}, but the \
                         journal has no record of it — refusing to resume"
                    ));
                }
                if last_reply != 0 {
                    return Err(format!(
                        "last_reply {last_reply} presented by a tenant the journal has \
                         never issued a reply to — refusing"
                    ));
                }
                let idx = inner.state.tenants.len();
                let minted =
                    (splitmix64(inner.token_nonce ^ (idx as u64)) & 0x7fff_ffff_ffff_ffff).max(1);
                let rec = TenantRec {
                    name: tenant.to_string(),
                    weight,
                    token: minted,
                    next_rseq: 1,
                    acked: 0,
                    failed: 0,
                };
                tenant_record(&rec)
                    .and_then(|bytes| inner.append(&bytes, &[], |s| s.add_tenant(rec)))
                    .map_err(|e| format!("journal register: {e}"))?;
                Ok(Resume {
                    token: minted,
                    replay: Vec::new(),
                })
            }
        }
    }

    /// Journal an admission *before* it enters the admission queue. A
    /// journaled reply that cannot be read back is an error.
    pub fn admit(
        &self,
        tenant: &str,
        seq: u64,
        root: u32,
        level: u32,
        tol: f64,
    ) -> io::Result<Admit> {
        let mut g = self.inner.lock().unwrap();
        let inner = &mut *g;
        let idx = *inner.state.by_name.get(tenant).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("admit for unregistered tenant {tenant:?}"),
            )
        })?;
        match inner.state.jobs.get(&(idx, seq)) {
            Some(JobState::Pending { .. }) => return Ok(Admit::DuplicatePending),
            Some(&JobState::Outcome { rseq, kind, at }) if kind != ReplyKind::Reject => {
                return inner.reply_frame(seq, rseq, at).map(Admit::Replay);
            }
            // A journaled Reject is not terminal: the client is retrying
            // after backpressure, so fall through and re-admit.
            Some(JobState::Outcome { .. }) | None => {}
        }
        let rec = admit_record(tenant, seq, root, level, tol)?;
        inner.append(&rec, &[], |s| {
            s.jobs
                .insert((idx, seq), JobState::Pending { root, level, tol });
        })?;
        Ok(Admit::New)
    }

    /// Journal an outcome *before* it is sent, assigning and returning
    /// its reply sequence ([`Journal::record_reply`] with a copy of
    /// `body`).
    pub fn record_outcome(&self, tenant: &str, seq: u64, body: &OutcomeBody) -> io::Result<u64> {
        self.record_reply(tenant, seq, body.clone())
            .map(|(rseq, _)| rseq)
    }

    /// Journal an outcome *before* it is sent: assign its reply sequence,
    /// encode the reply message once, straight into the frame the tenant
    /// receives, and append its payload. Returns the reply sequence and
    /// that frame; the journal keeps only where the payload lies. A
    /// record over the wire's `MAX_FRAME` is refused (`InvalidInput`)
    /// before anything is written.
    pub fn record_reply(
        &self,
        tenant: &str,
        seq: u64,
        body: OutcomeBody,
    ) -> io::Result<(u64, Vec<u8>)> {
        let mut g = self.inner.lock().unwrap();
        let inner = &mut *g;
        let idx = *inner.state.by_name.get(tenant).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("outcome for unregistered tenant {tenant:?}"),
            )
        })?;
        let rseq = inner.state.tenants[idx].next_rseq;
        let kind = body.kind();
        let frame = body.into_msg(seq, rseq).into_frame().map_err(invalid)?;
        let head = outcome_head(tenant)?;
        let at = Loc {
            seg: inner.seg_index,
            off: inner.seg_bytes + (HEADER_LEN + head.len()) as u64,
            len: frame.len() - HEADER_LEN,
        };
        inner.append(&head, &frame[HEADER_LEN..], |s| {
            s.outcome(idx, seq, rseq, kind, at)
        })?;
        Ok((rseq, frame))
    }

    /// The client has durably consumed every reply with `rseq <= upto`.
    pub fn ack(&self, tenant: &str, upto: u64) -> io::Result<()> {
        let mut g = self.inner.lock().unwrap();
        let inner = &mut *g;
        let Some(idx) = inner.state.by_name.get(tenant).copied() else {
            return Ok(()); // unknown tenant's ack is a no-op, not an error
        };
        if upto > inner.state.tenants[idx].acked {
            inner.append_ack(idx, upto)?;
        }
        Ok(())
    }
}

impl Inner {
    /// Append one record, the frame's payload `head` then `body`, and
    /// `apply` it to the state — before any rotation it triggers, so the
    /// rotated segment holds it. A failed append is cut from the segment
    /// again: the records after it must lie where `seg_bytes` says.
    fn append(
        &mut self,
        head: &[u8],
        body: &[u8],
        apply: impl FnOnce(&mut State),
    ) -> io::Result<()> {
        let written = frame::write_frame_parts(&mut self.file, head, body).and_then(|()| {
            if self.cfg.fsync {
                self.file.sync_data()
            } else {
                Ok(())
            }
        });
        if let Err(e) = written {
            let _ = self.file.set_len(self.seg_bytes);
            return Err(e);
        }
        self.seg_bytes += (HEADER_LEN + head.len() + body.len()) as u64;
        apply(&mut self.state);
        self.rotate_if_full();
        Ok(())
    }

    fn append_ack(&mut self, idx: usize, upto: u64) -> io::Result<()> {
        let rec = ack_record(&self.state.tenants[idx].name, upto)?;
        self.append(&rec, &[], |s| s.ack(idx, upto))
    }

    /// Read the kept reply at `at` into `buf`: from the active segment,
    /// or from the older segment that still holds it (after a recovery
    /// that replayed several segments, until the next rotation moves it).
    fn read_reply(&self, at: Loc, buf: &mut [u8]) -> io::Result<()> {
        if at.seg == self.seg_index {
            self.file.read_exact_at(buf, at.off)
        } else {
            File::open(self.cfg.dir.join(seg_name(at.seg)))?.read_exact_at(buf, at.off)
        }
    }

    /// The kept reply to `seq` with sequence `rseq`, read back from disk
    /// into the frame the tenant receives. Bytes that do not check as
    /// that reply are an error, never sent.
    fn reply_frame(&self, seq: u64, rseq: u64, at: Loc) -> io::Result<Vec<u8>> {
        let failed = |kind, e: &dyn Display| {
            let seg = seg_name(at.seg);
            let what = format!("the reply to seq {seq} (rseq {rseq}) at byte {}", at.off);
            io::Error::new(kind, format!("journal: reading {what} of {seg}: {e}"))
        };
        let mut frame = vec![0; HEADER_LEN + at.len];
        self.read_reply(at, &mut frame[HEADER_LEN..])
            .map_err(|e| failed(e.kind(), &e))?;
        let mut r = UnitReader::new(&frame[HEADER_LEN..]);
        match ServeMsg::check_reply(&mut r) {
            Ok((s, rs, _)) if (s, rs) == (seq, rseq) && r.finish().is_ok() => {}
            _ => return Err(failed(io::ErrorKind::InvalidData, &"other bytes lie there")),
        }
        frame::seal_frame(&mut frame);
        Ok(frame)
    }

    /// Rotate once `segment_bytes` of records follow the active segment's
    /// snapshot. The record that crossed the line is already durable, so
    /// a failed rotation only postpones compaction: it is reported, and
    /// the next append tries again.
    fn rotate_if_full(&mut self) {
        if self.seg_bytes - self.seg_base < self.cfg.segment_bytes {
            return;
        }
        if let Err(e) = self.rotate() {
            eprintln!(
                "journal: rotation failed ({e}); appending to {} until it succeeds",
                seg_name(self.seg_index)
            );
        }
    }

    /// Start a new segment holding the live state, every kept reply
    /// copied into it, then drop the older segments — compaction of
    /// everything already acked. The replies' locations move to the new
    /// segment only once it is renamed into place, and the older
    /// segments go only then, so a crash or a failure leaves every reply
    /// where its location says.
    fn rotate(&mut self) -> io::Result<()> {
        let next = self.seg_index + 1;
        let (file, len, moved) = create_segment(&self.cfg, next, |w| {
            self.state
                .write_records(w, SEG_HEADER_LEN, |at, buf| self.read_reply(at, buf))
        })?;
        let kept = self.state.jobs.values_mut().filter_map(|s| match s {
            JobState::Outcome { at, .. } => Some(at),
            JobState::Pending { .. } => None,
        });
        for (at, off) in kept.zip(moved) {
            *at = Loc {
                seg: next,
                off,
                ..*at
            };
        }
        self.file = file;
        for old in 1..next {
            let _ = fs::remove_file(self.cfg.dir.join(seg_name(old)));
        }
        self.seg_index = next;
        self.seg_bytes = len;
        self.seg_base = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Replies as the tenant decodes them.
    fn decoded(replay: &[Vec<u8>]) -> Vec<ServeMsg> {
        replay.iter().map(|f| decode(f)).collect()
    }

    /// A reply frame as the tenant decodes it.
    fn decode(frame: &[u8]) -> ServeMsg {
        let payload = frames(frame).pop().expect("a reply is one frame");
        ServeMsg::decode(&payload).expect("a journaled reply decodes")
    }

    /// Segment files on disk (1 except transiently): rotation and
    /// compaction show here.
    fn segment_count(j: &Journal) -> usize {
        let g = j.inner.lock().unwrap();
        fs::read_dir(&g.cfg.dir)
            .map(|rd| {
                rd.filter(|e| {
                    e.as_ref()
                        .map(|e| {
                            let n = e.file_name().to_string_lossy().into_owned();
                            n.starts_with("wal-") && n.ends_with(".seg")
                        })
                        .unwrap_or(false)
                })
                .count()
            })
            .unwrap_or(0)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mfsj-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn done(v: f64) -> OutcomeBody {
        OutcomeBody::Done {
            grids: 3,
            l2_error: 1e-4,
            combined: vec![v, v + 0.5],
        }
    }

    #[test]
    fn register_admit_outcome_survive_reopen() {
        let dir = tmp_dir("reopen");
        let (j, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(rec.tenants.is_empty());
        let r = j.register("acme", 2, 0, 0).unwrap();
        assert_ne!(r.token, 0);
        assert!(matches!(
            j.admit("acme", 1, 2, 1, 1e-3).unwrap(),
            Admit::New
        ));
        assert!(matches!(
            j.admit("acme", 2, 2, 1, 1e-3).unwrap(),
            Admit::New
        ));
        assert!(matches!(
            j.admit("acme", 1, 2, 1, 1e-3).unwrap(),
            Admit::DuplicatePending
        ));
        let rseq = j.record_outcome("acme", 1, &done(1.0)).unwrap();
        assert_eq!(rseq, 1);
        drop(j);

        // "Crash": reopen from disk. Seq 2 is pending, seq 1's outcome is
        // unacked, the tenant keeps its token.
        let (j2, rec2) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec2.tenants, vec![("acme".to_string(), 2, 0)]);
        assert_eq!(rec2.pending.len(), 1);
        assert_eq!(rec2.pending[0].seq, 2);
        assert_eq!(rec2.unacked_outcomes, 1);
        let r2 = j2.register("acme", 2, r.token, 0).unwrap();
        assert_eq!(r2.token, r.token);
        match &decoded(&r2.replay)[..] {
            [ServeMsg::Done {
                seq,
                rseq,
                combined,
                ..
            }] => {
                assert_eq!((*seq, *rseq), (1, 1));
                assert_eq!(combined, &vec![1.0, 1.5]);
            }
            other => panic!("unexpected replay {other:?}"),
        }
        // Resubmitting the finished seq replays, not re-executes.
        match j2.admit("acme", 1, 2, 1, 1e-3).unwrap() {
            Admit::Replay(reply) => assert_eq!(reply, r2.replay[0]),
            other => panic!("seq 1 must replay, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_tokens_are_refused() {
        let dir = tmp_dir("token");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let r = j.register("a", 1, 0, 0).unwrap();
        assert!(j
            .register("a", 1, r.token ^ 1, 0)
            .unwrap_err()
            .contains("does not match"));
        assert!(j
            .register("ghost", 1, 77, 0)
            .unwrap_err()
            .contains("no record"));
        // The interrupted-handshake window: no journaled activity yet, so
        // a tokenless re-registration recovers the existing token.
        assert_eq!(j.register("a", 1, 0, 0).unwrap().token, r.token);
        // Once the tenant has any journaled history, a tokenless hello
        // is a session-steal attempt and is refused.
        j.admit("a", 1, 2, 1, 1e-3).unwrap();
        assert!(j
            .register("a", 1, 0, 0)
            .unwrap_err()
            .contains("requires its token"));
        // The real token still resumes.
        assert_eq!(j.register("a", 1, r.token, 0).unwrap().token, r.token);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `last_reply` above anything the daemon ever issued is a forged
    /// ack that would compact away undelivered replies — refused, both
    /// with a valid token and on first registration.
    #[test]
    fn inflated_last_reply_is_refused() {
        let dir = tmp_dir("inflate");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(j
            .register("a", 1, 0, 3)
            .unwrap_err()
            .contains("never issued a reply"));
        let tok = j.register("a", 1, 0, 0).unwrap().token;
        j.admit("a", 1, 2, 1, 1e-3).unwrap();
        let rseq = j.record_outcome("a", 1, &done(1.0)).unwrap();
        assert_eq!(rseq, 1);
        assert!(j
            .register("a", 1, tok, 2)
            .unwrap_err()
            .contains("never issued"));
        // The genuine watermark is accepted and acks the outcome.
        let r = j.register("a", 1, tok, 1).unwrap();
        assert!(r.replay.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn acked_replies_are_not_replayed_and_rejects_readmit() {
        let dir = tmp_dir("ack");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let tok = j.register("a", 1, 0, 0).unwrap().token;
        j.admit("a", 1, 2, 1, 1e-3).unwrap();
        j.admit("a", 2, 2, 1, 1e-3).unwrap();
        j.record_outcome("a", 1, &done(1.0)).unwrap(); // rseq 1
        j.record_outcome(
            "a",
            2,
            &OutcomeBody::Reject {
                retry_after_ms: 25,
                reason: RejectReason::QueueFull,
            },
        )
        .unwrap(); // rseq 2
        j.ack("a", 1).unwrap();
        let r = j.register("a", 1, tok, 1).unwrap();
        assert!(
            matches!(
                decoded(&r.replay)[..],
                [ServeMsg::Reject {
                    seq: 2,
                    rseq: 2,
                    ..
                }]
            ),
            "only the unacked reject replays"
        );
        // The rejected seq may be re-admitted (backpressure retry).
        assert!(matches!(j.admit("a", 2, 2, 1, 1e-3).unwrap(), Admit::New));
        // Hello's last_reply acks implicitly, and survives reopen.
        drop(j);
        let (j2, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.pending.len(), 1); // the re-admitted seq 2
        let r2 = j2.register("a", 1, tok, 0).unwrap();
        assert!(
            r2.replay.is_empty(),
            "acked Done stays compacted: {:?}",
            r2.replay
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        j.register("a", 1, 0, 0).unwrap();
        j.admit("a", 1, 2, 1, 1e-3).unwrap();
        drop(j);
        let path = dir.join(seg_name(1));
        let bytes = fs::read(&path).unwrap();
        // Chop mid-record: recovery keeps the register, drops the admit.
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_j2, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.tenants.len(), 1);
        assert!(rec.pending.is_empty(), "torn admit must not resurrect");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_compacts_acked_entries() {
        let dir = tmp_dir("rotate");
        let mut cfg = JournalConfig::new(&dir);
        cfg.segment_bytes = 2048; // rotate eagerly
        let (j, _) = Journal::open(cfg.clone()).unwrap();
        let tok = j.register("a", 1, 0, 0).unwrap().token;
        for seq in 1..=64u64 {
            j.admit("a", seq, 2, 1, 1e-3).unwrap();
            let rseq = j.record_outcome("a", seq, &done(seq as f64)).unwrap();
            j.ack("a", rseq).unwrap();
        }
        assert_eq!(segment_count(&j), 1, "old segments deleted after rotation");
        drop(j);
        // The compacted journal still knows the tenant and its watermark.
        let (j2, rec) = Journal::open(cfg).unwrap();
        assert_eq!(rec.tenants.len(), 1);
        assert!(rec.pending.is_empty());
        assert_eq!(rec.unacked_outcomes, 0);
        let r = j2.register("a", 1, tok, 0).unwrap();
        assert!(r.replay.is_empty());
        // rseq keeps counting from where it left off.
        j2.admit("a", 65, 2, 1, 1e-3).unwrap();
        assert_eq!(j2.record_outcome("a", 65, &done(0.0)).unwrap(), 65);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_non_final_segment_is_fatal() {
        let dir = tmp_dir("rot-corrupt");
        let mut cfg = JournalConfig::new(&dir);
        cfg.segment_bytes = 1024;
        let (j, _) = Journal::open(cfg.clone()).unwrap();
        j.register("a", 1, 0, 0).unwrap();
        for seq in 1..=32u64 {
            j.admit("a", seq, 2, 1, 1e-3).unwrap();
        }
        drop(j);
        // Plant a corrupt *earlier* segment alongside the live one.
        let live = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .unwrap();
        let live_name = live.file_name().to_string_lossy().into_owned();
        let idx: u64 = live_name
            .strip_prefix("wal-")
            .unwrap()
            .strip_suffix(".seg")
            .unwrap()
            .parse()
            .unwrap();
        assert!(idx >= 1);
        let mut earlier = fs::read(live.path()).unwrap();
        let last = earlier.len() - 1;
        earlier[last] ^= 0x10; // bit rot, not truncation
        fs::write(dir.join(seg_name(idx + 1)), fs::read(live.path()).unwrap()).unwrap();
        fs::write(live.path(), &earlier).unwrap();
        let err = match Journal::open(cfg) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("corrupt non-final segment must refuse to open"),
        };
        assert!(err.contains("non-final segment"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// What an open of `dir` recovers — tenants, pending jobs, unacked
    /// outcomes — and every reply it replays to the resumed tenants: what
    /// a rotation must keep.
    type Recovered = (
        Vec<(String, u32, u64)>,
        Vec<PendingJob>,
        usize,
        Vec<Vec<u8>>,
    );

    fn recovered(dir: &Path, tenants: &[(&str, u64)]) -> Recovered {
        let (j, rec) = Journal::open(JournalConfig::new(dir)).unwrap();
        let replay = tenants
            .iter()
            .flat_map(|&(name, tok)| j.register(name, 1, tok, 0).unwrap().replay)
            .collect();
        (rec.tenants, rec.pending, rec.unacked_outcomes, replay)
    }

    /// A rotation writes the live state as ordinary records, and a
    /// journal reopened from them recovers what it recovered before —
    /// the tenants' `Fail` counts too, which the rotated tenant records
    /// and the replayed `Fail` outcomes share — twice over. Every replay
    /// is the very payload the tenant would have been sent live.
    #[test]
    fn a_rotation_keeps_recovery_and_every_reply_byte() {
        let dir = tmp_dir("identity");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let a = j.register("a", 2, 0, 0).unwrap().token;
        let b = j.register("b", 1, 0, 0).unwrap().token;
        for seq in 1..=5 {
            j.admit("a", seq, 2, 1, 1e-3).unwrap();
        }
        j.admit("b", 1, 3, 2, 1e-4).unwrap();
        j.admit("b", 2, 3, 2, 1e-4).unwrap();
        j.record_outcome("a", 2, &done(2.0)).unwrap();
        let fail = OutcomeBody::Fail {
            error: "engine: lost".into(),
        };
        j.record_outcome("a", 3, &fail).unwrap();
        let reject = OutcomeBody::Reject {
            retry_after_ms: 40,
            reason: RejectReason::OverCapacity,
        };
        j.record_outcome("a", 4, &reject).unwrap();
        j.record_outcome("a", 5, &done(5.0)).unwrap();
        j.record_outcome("b", 1, &done(-1.0)).unwrap();
        j.ack("a", 1).unwrap();
        drop(j);
        let before = recovered(&dir, &[("a", a), ("b", b)]);
        assert_eq!(before.0, vec![("a".into(), 2, 1), ("b".into(), 1, 0)]);
        assert_eq!(before.1.len(), 2, "a's seq 1 and b's seq 2");
        assert_eq!(before.2, 4, "a's Fail, Reject and Done, and b's Done");
        let sent = [
            fail.into_msg(3, 2),
            reject.into_msg(4, 3),
            done(5.0).into_msg(5, 4),
            done(-1.0).into_msg(1, 1),
        ];
        assert_eq!(before.3.len(), sent.len());
        for (reply, msg) in before.3.iter().zip(&sent) {
            assert_eq!(*reply, msg.to_frame().unwrap(), "{msg:?}");
        }

        for round in 1..=2 {
            let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            let mut g = j.inner.lock().unwrap();
            g.rotate().unwrap();
            let next = g.seg_index;
            drop(g);
            drop(j);
            assert!(!dir.join(seg_name(next - 1)).exists());
            let seg = fs::read(dir.join(seg_name(next))).unwrap();
            let records = frames(&seg[8..]);
            assert_eq!(records[0], snapshot_record().unwrap(), "round {round}");
            assert_eq!(records.len(), 1 + 2 + 6, "round {round}");
            assert_eq!(
                recovered(&dir, &[("a", a), ("b", b)]),
                before,
                "round {round}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The payloads of the frames in `bytes`, all of them whole.
    fn frames(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut r = bytes;
        std::iter::from_fn(|| frame::read_frame(&mut r).unwrap()).collect()
    }

    /// A record whose append fills the segment is in the snapshot that
    /// append writes: whichever kind of record triggers the rotation,
    /// the reopened journal knows it.
    #[test]
    fn every_record_survives_the_rotation_it_triggers() {
        for trigger in ["register", "admit", "outcome", "ack"] {
            let dir = tmp_dir(&format!("trigger-{trigger}"));
            let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            // Run `op`; if it is the trigger, shrink the segment so that
            // its one record fills it. Only the trigger rotates.
            let step = |name: &str, op: &dyn Fn()| {
                let armed = name == trigger;
                let before = {
                    let mut g = j.inner.lock().unwrap();
                    g.cfg.segment_bytes = if armed { 1 } else { u64::MAX };
                    g.seg_index
                };
                op();
                let mut g = j.inner.lock().unwrap();
                g.cfg.segment_bytes = u64::MAX;
                assert_eq!(
                    g.seg_index - before,
                    armed as u64,
                    "{name}, trigger {trigger}"
                );
            };
            let tok = Cell::new(0);
            step("register", &|| {
                tok.set(j.register("a", 1, 0, 0).unwrap().token)
            });
            step("admit", &|| {
                j.admit("a", 1, 2, 1, 1e-3).unwrap();
            });
            j.admit("a", 2, 2, 1, 1e-3).unwrap();
            step("outcome", &|| {
                assert_eq!(j.record_outcome("a", 2, &done(2.0)).unwrap(), 1);
            });
            j.admit("a", 3, 2, 1, 1e-3).unwrap();
            j.record_outcome("a", 3, &done(3.0)).unwrap();
            step("ack", &|| j.ack("a", 1).unwrap());
            drop(j);

            let (j, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
            assert_eq!(rec.tenants, vec![("a".into(), 1, 0)], "trigger {trigger}");
            let pending: Vec<u64> = rec.pending.iter().map(|p| p.seq).collect();
            assert_eq!(pending, vec![1], "trigger {trigger}");
            assert_eq!(rec.unacked_outcomes, 1, "trigger {trigger}");
            let replay = decoded(&j.register("a", 1, tok.get(), 0).unwrap().replay);
            assert!(
                matches!(
                    replay[..],
                    [ServeMsg::Done {
                        seq: 3,
                        rseq: 2,
                        ..
                    }]
                ),
                "trigger {trigger}: {replay:?}"
            );
            j.admit("a", 4, 2, 1, 1e-3).unwrap();
            assert_eq!(j.record_outcome("a", 4, &done(4.0)).unwrap(), 3);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A snapshot larger than `segment_bytes` does not make every later
    /// append rotate again: the next rotation waits for `segment_bytes`
    /// of new records.
    #[test]
    fn a_live_state_over_the_segment_size_does_not_rotate_every_append() {
        let dir = tmp_dir("over");
        let mut cfg = JournalConfig::new(&dir);
        cfg.segment_bytes = 4096;
        let (j, _) = Journal::open(cfg).unwrap();
        j.register("a", 1, 0, 0).unwrap();
        let body = OutcomeBody::Done {
            grids: 3,
            l2_error: 0.0,
            combined: vec![0.5; 100],
        };
        for seq in 1..=20 {
            j.admit("a", seq, 2, 1, 1e-3).unwrap();
            j.record_outcome("a", seq, &body).unwrap();
        }
        let g = j.inner.lock().unwrap();
        assert!(g.seg_index > 1, "the unacked replies rotated the journal");
        assert!(g.seg_bytes > 4096, "the snapshot alone passes the size");
        let before = g.seg_index;
        drop(g);
        for seq in 21..=30 {
            j.admit("a", seq, 2, 1, 1e-3).unwrap();
        }
        assert_eq!(j.inner.lock().unwrap().seg_index, before);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every frame `tenant` is sent again, read back from disk: its
    /// resume replay, then the replay of a resubmit of each of `seqs`.
    fn resent(j: &Journal, tenant: &str, token: u64, seqs: &[u64]) -> Vec<Vec<u8>> {
        let mut frames = j.register(tenant, 1, token, 0).unwrap().replay;
        for &seq in seqs {
            match j.admit(tenant, seq, 2, 1, 1e-3).unwrap() {
                Admit::Replay(frame) => frames.push(frame),
                other => panic!("seq {seq} must replay, got {other:?}"),
            }
        }
        frames
    }

    /// The record that fills a segment is durable before the rotation
    /// starts, so a rotation that fails costs the append nothing: it is
    /// tried again at the next one. The kept replies stay where they
    /// were until a rotation succeeds, and then move: each is resent as
    /// the very frame first sent, after the failure and after the retry.
    #[test]
    fn a_failed_rotation_keeps_the_record_and_retries() {
        let dir = tmp_dir("rot-fail");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let tok = j.register("a", 1, 0, 0).unwrap().token;
        let mut sent = Vec::new();
        for (seq, body) in [
            (10, done(10.0)),
            (
                11,
                OutcomeBody::Fail {
                    error: "engine: lost".into(),
                },
            ),
        ] {
            j.admit("a", seq, 2, 1, 1e-3).unwrap();
            sent.push(j.record_reply("a", seq, body).unwrap().1);
        }
        let both = [sent.clone(), sent.clone()].concat();
        // A directory where the snapshot's temp file goes fails the write.
        let blocker = dir.join(format!("{}.tmp", seg_name(2)));
        fs::create_dir(&blocker).unwrap();
        j.inner.lock().unwrap().cfg.segment_bytes = 1;
        assert!(matches!(j.admit("a", 1, 2, 1, 1e-3).unwrap(), Admit::New));
        assert_eq!(j.inner.lock().unwrap().seg_index, 1);
        assert_eq!(resent(&j, "a", tok, &[10, 11]), both, "after the failure");
        fs::remove_dir(&blocker).unwrap();
        j.admit("a", 2, 2, 1, 1e-3).unwrap();
        assert_eq!(j.inner.lock().unwrap().seg_index, 2);
        assert_eq!(segment_count(&j), 1);
        assert_eq!(resent(&j, "a", tok, &[10, 11]), both, "after the retry");
        drop(j);
        let (j, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let pending: Vec<u64> = rec.pending.iter().map(|p| p.seq).collect();
        assert_eq!(pending, vec![1, 2]);
        assert_eq!(resent(&j, "a", tok, &[10, 11]), both, "after reopening");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A reply may lie in a segment older than the active one: here the
    /// segment after it holds only its header, so recovery keeps the
    /// reply where it lies. It is resent byte-identical from there, and
    /// again once the next rotation has copied it and deleted both
    /// files.
    #[test]
    fn a_reply_in_an_older_segment_is_resent_and_moved_by_the_next_rotation() {
        let dir = tmp_dir("older");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let tok = j.register("a", 1, 0, 0).unwrap().token;
        j.admit("a", 1, 2, 1, 1e-3).unwrap();
        let sent = j.record_reply("a", 1, done(1.0)).unwrap().1;
        drop(j);
        fs::write(dir.join(seg_name(2)), seg_header()).unwrap();
        let (j, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.unacked_outcomes, 1);
        assert_eq!(j.inner.lock().unwrap().seg_index, 2);
        let both = vec![sent.clone(), sent];
        assert_eq!(resent(&j, "a", tok, &[1]), both, "from the older segment");
        j.inner.lock().unwrap().rotate().unwrap();
        assert!(!dir.join(seg_name(1)).exists());
        assert!(!dir.join(seg_name(2)).exists());
        assert_eq!(resent(&j, "a", tok, &[1]), both, "after the rotation");
        drop(j);
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(resent(&j, "a", tok, &[1]), both, "after reopening");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A kept reply that cannot be read back — its segment gone, cut
    /// short, or overwritten — fails the resubmit and the resume with a
    /// diagnosed error: no panic, and no bytes sent that are not the
    /// reply.
    #[test]
    fn a_reply_that_cannot_be_read_back_is_a_diagnosed_error() {
        let dir = tmp_dir("unreadable");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let tok = j.register("a", 1, 0, 0).unwrap().token;
        j.admit("a", 1, 2, 1, 1e-3).unwrap();
        j.record_outcome("a", 1, &done(1.0)).unwrap();
        let at = match j.inner.lock().unwrap().state.jobs.get(&(0, 1)) {
            Some(&JobState::Outcome { at, .. }) => at,
            other => panic!("seq 1 has no kept reply: {other:?}"),
        };
        let seg = dir.join(seg_name(1));
        let whole = fs::read(&seg).unwrap();
        let mut overwritten = whole.clone();
        overwritten[at.off as usize..][..at.len].fill(0);
        let older = dir.join(seg_name(2));
        for (how, damaged) in [
            ("cut short", whole[..at.off as usize].to_vec()),
            ("overwritten", overwritten),
        ] {
            fs::write(&seg, damaged).unwrap();
            let err = match j.admit("a", 1, 2, 1, 1e-3) {
                Err(e) => e.to_string(),
                Ok(other) => panic!("{how}: a resubmit got {other:?}"),
            };
            assert!(err.contains("the reply to seq 1 (rseq 1)"), "{how}: {err}");
            let err = j.register("a", 1, tok, 0).unwrap_err();
            assert!(err.starts_with("journal replay:"), "{how}: {err}");
            fs::write(&seg, &whole).unwrap();
            assert!(matches!(
                j.admit("a", 1, 2, 1, 1e-3).unwrap(),
                Admit::Replay(_)
            ));
        }
        // The reply lies in an older segment, which is gone.
        drop(j);
        fs::write(&older, seg_header()).unwrap();
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        fs::remove_file(&seg).unwrap();
        let err = j.admit("a", 1, 2, 1, 1e-3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        let err = j.register("a", 1, tok, 0).unwrap_err();
        assert!(err.starts_with("journal replay:"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The first segment is made as a rotation makes one, under a
    /// temporary name: a crash leaves at most a temporary file, which
    /// the next open removes, and the directory opens as an empty
    /// journal.
    #[test]
    fn a_half_made_first_segment_is_removed_and_the_journal_starts_empty() {
        let dir = tmp_dir("half-made");
        fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join(format!("{}.tmp", seg_name(1)));
        fs::write(&tmp, b"MFS").unwrap();
        let (j, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(rec.tenants.is_empty() && rec.pending.is_empty());
        assert!(!tmp.exists());
        assert_eq!(fs::read(dir.join(seg_name(1))).unwrap(), seg_header());
        j.register("a", 1, 0, 0).unwrap();
        j.admit("a", 1, 2, 1, 1e-3).unwrap();
        drop(j);
        let (_j, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.pending.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A live state larger than the wire's `MAX_FRAME` rotates into
    /// records that each fit a frame, and is read back whole.
    #[test]
    fn a_snapshot_larger_than_a_wire_frame_reopens_whole() {
        let dir = tmp_dir("huge");
        let mut cfg = JournalConfig::new(&dir);
        cfg.segment_bytes = u64::MAX;
        let (j, _) = Journal::open(cfg.clone()).unwrap();
        j.register("a", 1, 0, 0).unwrap();
        // Four Done bodies that together pass the cap.
        let n = transport::MAX_FRAME / 8 / 4 + 1;
        for seq in 1..=4 {
            j.admit("a", seq, 2, 1, 1e-3).unwrap();
            let body = OutcomeBody::Done {
                grids: 7,
                l2_error: seq as f64,
                combined: (0..n).map(|i| i as f64).collect(),
            };
            j.record_outcome("a", seq, &body).unwrap();
        }
        j.inner.lock().unwrap().rotate().unwrap();
        let snapshot = fs::metadata(dir.join(seg_name(2))).unwrap().len();
        assert!(snapshot > transport::MAX_FRAME as u64 + 16, "{snapshot}");
        drop(j);

        let (j, rec) = Journal::open(cfg).unwrap();
        assert_eq!(rec.unacked_outcomes, 4);
        assert_eq!(fs::metadata(dir.join(seg_name(2))).unwrap().len(), snapshot);
        match j.admit("a", 4, 2, 1, 1e-3).unwrap() {
            Admit::Replay(reply) => match decode(&reply) {
                ServeMsg::Done {
                    seq: 4,
                    rseq: 4,
                    grids: 7,
                    l2_error,
                    combined,
                } => {
                    assert_eq!(l2_error, 4.0);
                    assert_eq!(combined.len(), n);
                    assert!(combined.iter().enumerate().all(|(i, &v)| v == i as f64));
                }
                other => panic!("unexpected replay {other:?}"),
            },
            other => panic!("seq 4 must replay, got {other:?}"),
        }
        drop(j);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A journal written in another layout is refused with a diagnosed
    /// error, and every file is left as it was: nothing truncated,
    /// renamed or deleted, not even what reads as a torn tail in v2.
    #[test]
    fn a_version_1_journal_is_refused_and_left_untouched() {
        let dir = tmp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        let register = Unit::tuple(vec![
            Unit::int(1),
            Unit::text("a"),
            Unit::int(1),
            Unit::int(77),
        ]);
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend(transport::frame_vec(
            &transport::encode_unit_vec(&register).unwrap(),
        ));
        fs::write(dir.join(seg_name(1)), &v1).unwrap();
        v1.extend_from_slice(&[9, 9, 9]);
        fs::write(dir.join(seg_name(2)), &v1).unwrap();
        let files = || {
            let mut all: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let bytes = fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            all.sort();
            all
        };
        let before = files();
        let err = match Journal::open(JournalConfig::new(&dir)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a version 1 journal must be refused"),
        };
        assert!(
            err.contains("layout version 1, this build reads 2"),
            "{err}"
        );
        assert_eq!(files(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every record is read back through `read_frame`, so none may be
    /// written over `MAX_FRAME`: such a reply is refused before a byte
    /// of it reaches the segment, and takes no reply sequence.
    #[test]
    fn a_reply_over_a_wire_frame_is_refused_before_it_is_written() {
        let dir = tmp_dir("over-frame");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        j.register("a", 1, 0, 0).unwrap();
        j.admit("a", 1, 2, 1, 1e-3).unwrap();
        let seg = dir.join(seg_name(1));
        let len = fs::metadata(&seg).unwrap().len();
        let huge = OutcomeBody::Done {
            grids: 1,
            l2_error: 0.0,
            combined: vec![0.0; transport::MAX_FRAME / 8],
        };
        let err = j.record_reply("a", 1, huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(fs::metadata(&seg).unwrap().len(), len);
        assert_eq!(j.record_outcome("a", 1, &done(1.0)).unwrap(), 1);
        drop(j);
        let (_j, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(rec.unacked_outcomes, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    fn corpus_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus/journal")
    }

    /// A segment: the header, then one frame per `(head, body)` record.
    fn segment(records: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut out = seg_header();
        for (head, body) in records {
            frame::write_frame_parts(&mut out, head, body).unwrap();
        }
        out
    }

    /// One segment per record kind, each led by the records it needs,
    /// and one rotated segment holding two tenants' pending jobs,
    /// `Done`/`Fail`/`Reject` replies and an ack watermark. Built from
    /// the record builders with fixed tokens, so the bytes are stable.
    fn corpus_segments() -> Vec<(&'static str, Vec<u8>)> {
        let tenant = |name: &str, token| {
            let t = TenantRec {
                name: name.into(),
                weight: 2,
                token,
                next_rseq: 1,
                acked: 0,
                failed: 0,
            };
            (tenant_record(&t).unwrap(), Vec::new())
        };
        let admit = |name: &str, seq| (admit_record(name, seq, 2, 1, 1e-3).unwrap(), Vec::new());
        let outcome =
            |name: &str, msg: ServeMsg| (outcome_head(name).unwrap(), msg.encode().unwrap());
        let ack = |name: &str, upto| (ack_record(name, upto).unwrap(), Vec::new());
        let done = |seq, rseq| done(seq as f64).into_msg(seq, rseq);
        let fail = |seq, rseq| ServeMsg::Fail {
            seq,
            rseq,
            error: "engine: lost".into(),
        };
        let reject = |seq, rseq| ServeMsg::Reject {
            seq,
            rseq,
            retry_after_ms: 25,
            reason: RejectReason::QueueFull,
        };
        let (a, b) = ("tenant-α", "b");
        let live = vec![
            tenant(a, 0x0123_4567_89ab_cdef),
            tenant(b, 7),
            admit(a, 1),
            admit(a, 2),
            admit(a, 3),
            admit(a, 4),
            admit(b, 1),
            outcome(a, done(1, 1)),
            outcome(a, fail(2, 2)),
            outcome(a, reject(3, 3)),
            outcome(b, done(1, 1)),
            ack(a, 1),
        ];
        let live_seg = segment(&live);
        let mut state = State::default();
        for (at, payload) in records_at(&live_seg) {
            state.apply(&payload, 1, at).unwrap();
        }
        let mut rotated = seg_header();
        state
            .write_records(&mut rotated, SEG_HEADER_LEN, read_from(&[&live_seg]))
            .unwrap();
        vec![
            ("tenant", segment(&live[..1])),
            ("admit", segment(&[live[0].clone(), live[2].clone()])),
            (
                "outcome-done",
                segment(&[live[0].clone(), live[2].clone(), live[7].clone()]),
            ),
            (
                "outcome-fail",
                segment(&[live[0].clone(), live[3].clone(), live[8].clone()]),
            ),
            (
                "outcome-reject",
                segment(&[live[0].clone(), live[4].clone(), live[9].clone()]),
            ),
            (
                "ack",
                segment(&[
                    live[0].clone(),
                    live[2].clone(),
                    live[7].clone(),
                    live[11].clone(),
                ]),
            ),
            ("rotated", rotated),
        ]
    }

    /// The committed corpus, checked against the current builders;
    /// regenerate it after an intentional layout change with
    /// `MC_BLESS=1 cargo test -p serve --lib journal`.
    fn corpus() -> Vec<(&'static str, Vec<u8>)> {
        let dir = corpus_dir();
        let bless = std::env::var_os("MC_BLESS").is_some();
        if bless {
            fs::create_dir_all(&dir).unwrap();
        }
        let segs = corpus_segments();
        for (name, seg) in &segs {
            let path = dir.join(format!("{name}.seg"));
            if bless {
                fs::write(&path, seg).unwrap();
            }
            let bytes = fs::read(&path).unwrap_or_else(|e| {
                panic!(
                    "missing corpus seed {} ({e}); run with MC_BLESS=1",
                    path.display()
                )
            });
            assert!(
                bytes == *seg,
                "corpus seed {name} drifted from the current layout; regenerate with \
                 MC_BLESS=1 if the change was intentional"
            );
        }
        segs
    }

    /// Open `dir` with `final_seg` as its last segment (after `earlier`,
    /// if given), catching a panic as a test failure.
    fn open_with(dir: &Path, earlier: Option<&[u8]>, final_seg: &[u8]) -> io::Result<Recovery> {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        if let Some(seg) = earlier {
            fs::write(dir.join(seg_name(1)), seg).unwrap();
        }
        fs::write(dir.join(seg_name(2)), final_seg).unwrap();
        std::panic::catch_unwind(|| Journal::open(JournalConfig::new(dir)).map(|(_, rec)| rec))
            .unwrap_or_else(|_| panic!("Journal::open panicked"))
    }

    /// Journal replay under corruption: every single-bit flip and every
    /// truncation of a corpus segment either fails to open with a
    /// diagnosed error or, in the final segment, recovers a prefix of the
    /// records the segment held, cut at the first bad one. A flipped bit
    /// in an earlier segment always fails.
    #[test]
    fn corrupt_segments_are_refused_or_cut_to_a_valid_prefix() {
        let dir = tmp_dir("fuzz-open");
        let path = dir.join(seg_name(2));
        let diagnosed = |e: io::Error| {
            let msg = e.to_string();
            assert!(msg.starts_with("journal segment"), "undiagnosed: {msg}");
        };
        for (name, seg) in corpus() {
            let full = open_with(&dir, None, &seg).unwrap();
            assert!(
                fs::read(&path).unwrap() == seg,
                "{name}: a clean segment is kept whole"
            );
            let mut cases: Vec<(String, Vec<u8>)> = (0..seg.len())
                .map(|cut| (format!("cut to {cut}"), seg[..cut].to_vec()))
                .collect();
            for byte in 0..seg.len() {
                for bit in 0..8 {
                    let mut evil = seg.clone();
                    evil[byte] ^= 1 << bit;
                    cases.push((format!("byte {byte} bit {bit}"), evil));
                }
            }
            for (what, evil) in &cases {
                match open_with(&dir, None, evil) {
                    Err(e) => diagnosed(e),
                    Ok(rec) => {
                        let kept = fs::read(&path).unwrap();
                        assert!(
                            kept.len() < seg.len() && seg.starts_with(&kept),
                            "{name}, {what}: kept {} bytes that are not a prefix",
                            kept.len()
                        );
                        assert!(rec.tenants.len() <= full.tenants.len(), "{name}, {what}");
                    }
                }
                if what.starts_with("byte") {
                    match open_with(&dir, Some(evil), &seg_header()) {
                        Err(e) => diagnosed(e),
                        Ok(_) => panic!("{name}, {what}: a corrupt earlier segment opened"),
                    }
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The records of the segment `bytes`, each with the offset its
    /// payload lies at.
    fn records_at(bytes: &[u8]) -> Vec<(u64, Vec<u8>)> {
        let mut at = SEG_HEADER_LEN;
        frames(&bytes[SEG_HEADER_LEN as usize..])
            .into_iter()
            .map(|payload| {
                let here = at + HEADER_LEN as u64;
                at = here + payload.len() as u64;
                (here, payload)
            })
            .collect()
    }

    /// A rotation's reply reader over segments held in memory, numbered
    /// from 1; a location outside them is an error.
    fn read_from<'a>(segs: &'a [&'a [u8]]) -> impl FnMut(Loc, &mut [u8]) -> io::Result<()> + 'a {
        |at, buf| {
            let bytes = (at.seg as usize)
                .checked_sub(1)
                .and_then(|i| segs.get(i))
                .and_then(|seg| seg.get(at.off as usize..))
                .and_then(|rest| rest.get(..at.len))
                .ok_or_else(|| io::Error::other(format!("no reply at {at:?}")))?;
            buf.copy_from_slice(bytes);
            Ok(())
        }
    }

    /// Every single-bit flip and truncation of `payload`, and `payload`
    /// with trailing garbage.
    fn mutations(payload: &[u8]) -> Vec<Vec<u8>> {
        let mut cases: Vec<Vec<u8>> = (0..payload.len())
            .map(|cut| payload[..cut].to_vec())
            .collect();
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut evil = payload.to_vec();
                evil[byte] ^= 1 << bit;
                cases.push(evil);
            }
        }
        cases.push([payload, &[0xFF; 9]].concat());
        cases
    }

    /// `State::apply` on record payloads mangled past their CRC —
    /// single-bit flips, truncations, trailing garbage — returns `Ok` or
    /// `Err` and never panics, and a rotation of whatever state it left
    /// does not panic either.
    #[test]
    fn mutated_records_never_panic_the_replay() {
        for (name, seg) in corpus() {
            let records = records_at(&seg);
            for (i, (_, payload)) in records.iter().enumerate() {
                for (k, evil) in mutations(payload).iter().enumerate() {
                    let mut state = State::default();
                    for (at, earlier) in &records[..i] {
                        state.apply(earlier, 1, *at).unwrap();
                    }
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = state.apply(evil, 2, 0);
                        let segs: [&[u8]; 2] = [&seg, evil];
                        let read = read_from(&segs);
                        let _ = state.write_records(&mut Vec::new(), SEG_HEADER_LEN, read);
                    }))
                    .unwrap_or_else(|_| panic!("{name}: record {i}, case {k} panicked"));
                }
            }
        }
    }

    /// Recovery checks a reply in place (`ServeMsg::check_reply`) rather
    /// than decoding it: over every corpus record and every mutation of
    /// it, the check accepts exactly the records whose reply
    /// `ServeMsg::from_unit` accepts as a `Done`, `Fail` or `Reject`, and
    /// reads the same `seq`, `rseq` and kind.
    #[test]
    fn the_in_place_reply_check_accepts_what_from_unit_accepts() {
        // Both read the record's arity, tag and tenant alike, then the
        // reply, which must end the record.
        let decoded = |p: &[u8]| -> Result<(u64, u64, ReplyKind), String> {
            let mut r = UnitReader::new(p);
            r.tuple().map_err(|e| e.to_string())?;
            for _ in 0..2 {
                r.unit().map_err(|e| e.to_string())?;
            }
            let msg = ServeMsg::from_unit(&r.unit().map_err(|e| e.to_string())?.0)?;
            r.finish().map_err(|e| e.to_string())?;
            match msg {
                ServeMsg::Done { seq, rseq, .. } => Ok((seq, rseq, ReplyKind::Done)),
                ServeMsg::Fail { seq, rseq, .. } => Ok((seq, rseq, ReplyKind::Fail)),
                ServeMsg::Reject { seq, rseq, .. } => Ok((seq, rseq, ReplyKind::Reject)),
                _ => Err("not a reply".into()),
            }
        };
        let in_place = |p: &[u8]| -> Result<(u64, u64, ReplyKind), String> {
            let mut r = UnitReader::new(p);
            r.tuple().map_err(|e| e.to_string())?;
            for _ in 0..2 {
                r.unit().map_err(|e| e.to_string())?;
            }
            let reply = ServeMsg::check_reply(&mut r)?;
            r.finish().map_err(|e| e.to_string())?;
            Ok(reply)
        };
        let mut accepted = 0;
        for (name, seg) in corpus() {
            for (i, (_, payload)) in records_at(&seg).iter().enumerate() {
                for (k, evil) in mutations(payload).iter().enumerate() {
                    let (want, got) = (decoded(evil), in_place(evil));
                    assert_eq!(
                        want.is_ok(),
                        got.is_ok(),
                        "{name}: record {i}, case {k}: {want:?} vs {got:?}"
                    );
                    if let (Ok(want), Ok(got)) = (want, got) {
                        assert_eq!(want, got, "{name}: record {i}, case {k}");
                        accepted += 1;
                    }
                }
            }
        }
        assert!(accepted > 0, "some mutations still hold a reply");
    }
}
