//! The serving write-ahead journal: crash durability for admitted work.
//!
//! The daemon's contract without a journal is "accepted work finishes
//! unless the daemon dies" — this module removes the qualifier. Every
//! admitted `Submit` is journaled *before* the admission layer sees it,
//! and every outcome (`Done`/`Fail`/`Reject`) is journaled *before* it is
//! sent, so a SIGKILL at any instant loses at most replies that were
//! never acknowledged — and those replay on reconnect.
//!
//! ## On-disk format
//!
//! A journal is a directory of numbered segments:
//!
//! ```text
//! wal-000001.seg   "MFSJ" version:u32le  frame(record)*
//! wal-000002.seg   "MFSJ" version:u32le  frame(Snapshot) frame(record)*
//! ```
//!
//! Each record is a [`Unit`] tuple encoded by [`transport::wire`] and
//! wrapped in the transport's CRC-32 frame — the same discipline as
//! [`renovation::checkpoint`] (MFCK), so bit rot is *detected* and a torn
//! tail (the one record a crash can interrupt) is truncated on recovery,
//! never misread. Records append with plain `write(2)`: a page-cached
//! write survives process death (the SIGKILL threat model this layer is
//! built for); [`JournalConfig::fsync`] upgrades every append to
//! power-loss durability at the documented throughput cost.
//!
//! A reply body is encoded once: an outcome record goes out as one
//! vectored write of frame header, record fields and body, with the CRC
//! taken over the pieces, and the journal keeps those same body bytes as
//! the unacknowledged reply, decoding them only to replay it. Recovery
//! reads each segment into memory and decodes every record in place;
//! a frame there is bounded by the bytes left in its segment, not by the
//! wire's `MAX_FRAME`, because a snapshot may outgrow any one message.
//!
//! ## Rotation and compaction
//!
//! Once the records appended to the active segment after its snapshot
//! pass [`JournalConfig::segment_bytes`], the journal applies the record
//! that crossed the line to its state and then writes a fresh segment
//! whose one record is a `Snapshot` of the entire live state — tenants
//! and their reply watermarks, pending jobs, unacknowledged outcomes,
//! the triggering record included — and deletes the older segments.
//! Entries the client has `Ack`ed are dropped from the snapshot, so the
//! journal's size is bounded by outstanding (not historical) work: the
//! live state plus one segment's worth of records. Counting from the
//! snapshot means a live state larger than `segment_bytes` rotates once
//! per `segment_bytes` appended, not again at every append.
//!
//! The snapshot is streamed into a temporary file one job entry at a
//! time (an outcome's body goes out as its journaled bytes), its frame
//! header patched with the length and CRC at the end, and the file
//! renamed into place: a rotation holds one entry in memory, never a
//! copy of the whole state, and writes the very bytes that framing the
//! whole snapshot unit at once would. A failed rotation loses nothing —
//! the record that triggered it is already in the active segment — so
//! it is reported and tried again at the next append.
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
use std::io::{self, BufWriter, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use manifold::Unit;
use transport::frame::{self, Crc32, HEADER_LEN};
use transport::wire::{self, UnitReader};

use crate::proto::{RejectReason, ServeMsg};

/// Magic bytes opening every journal segment.
pub const MAGIC: &[u8; 4] = b"MFSJ";

/// Version of the journal layout; mismatches are refused, not guessed.
const JOURNAL_VERSION: u32 = 1;

const R_REGISTER: i64 = 1;
const R_ADMIT: i64 = 2;
const R_OUTCOME: i64 = 3;
const R_ACK: i64 = 4;
const R_SNAPSHOT: i64 = 5;

const O_DONE: i64 = 0;
const O_FAIL: i64 = 1;
const O_REJECT: i64 = 2;

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

    fn to_unit(&self) -> Unit {
        match self {
            OutcomeBody::Done {
                grids,
                l2_error,
                combined,
            } => Unit::tuple(vec![
                Unit::int(O_DONE),
                Unit::int(*grids as i64),
                Unit::real(*l2_error),
                Unit::reals(combined.clone()),
            ]),
            OutcomeBody::Fail { error } => Unit::tuple(vec![Unit::int(O_FAIL), Unit::text(error)]),
            OutcomeBody::Reject {
                retry_after_ms,
                reason,
            } => Unit::tuple(vec![
                Unit::int(O_REJECT),
                Unit::int(*retry_after_ms as i64),
                Unit::int(match reason {
                    RejectReason::QueueFull => 0,
                    RejectReason::Draining => 1,
                    RejectReason::FaultBudgetExhausted => 2,
                    RejectReason::OverCapacity => 3,
                }),
            ]),
        }
    }

    fn from_unit(u: &Unit) -> Result<OutcomeBody, String> {
        let t = u.as_tuple().ok_or("outcome body is not a tuple")?;
        let int = |i: usize| -> Result<i64, String> {
            t.get(i)
                .and_then(Unit::as_int)
                .ok_or_else(|| format!("outcome field {i} is not an int"))
        };
        match int(0)? {
            O_DONE => Ok(OutcomeBody::Done {
                grids: int(1)? as u64,
                l2_error: t
                    .get(2)
                    .and_then(Unit::as_real)
                    .ok_or("outcome field 2 is not a real")?,
                combined: t
                    .get(3)
                    .and_then(Unit::as_reals)
                    .ok_or("outcome field 3 is not a reals vector")?
                    .as_ref()
                    .clone(),
            }),
            O_FAIL => Ok(OutcomeBody::Fail {
                error: t
                    .get(1)
                    .and_then(Unit::as_text)
                    .ok_or("outcome field 1 is not text")?
                    .to_string(),
            }),
            O_REJECT => Ok(OutcomeBody::Reject {
                retry_after_ms: int(1)? as u64,
                reason: match int(2)? {
                    0 => RejectReason::QueueFull,
                    1 => RejectReason::Draining,
                    2 => RejectReason::FaultBudgetExhausted,
                    3 => RejectReason::OverCapacity,
                    other => return Err(format!("unknown reject reason {other}")),
                },
            }),
            other => Err(format!("unknown outcome kind {other}")),
        }
    }

    fn decode(bytes: &[u8]) -> Result<OutcomeBody, String> {
        OutcomeBody::from_unit(&transport::decode_unit(bytes).map_err(|e| e.to_string())?)
    }

    fn kind(&self) -> i64 {
        match self {
            OutcomeBody::Done { .. } => O_DONE,
            OutcomeBody::Fail { .. } => O_FAIL,
            OutcomeBody::Reject { .. } => O_REJECT,
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

#[derive(Debug, Clone)]
enum JobState {
    Pending {
        root: u32,
        level: u32,
        tol: f64,
    },
    /// A journaled reply: its outcome kind (`O_*`) and its body's wire
    /// bytes as the journal wrote them, decoded only to be replayed.
    Outcome {
        rseq: u64,
        kind: i64,
        body: Arc<[u8]>,
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

    fn tuple_of(&mut self, n: usize, what: &str) -> Result<(), String> {
        match self.tuple(what)? {
            m if m == n => Ok(()),
            m => Err(format!("{what} has {m} fields, not {n}")),
        }
    }

    fn unit(&mut self, what: &str) -> Result<(Unit, &'a [u8]), String> {
        self.0.unit().map_err(|e| format!("{what}: {e}"))
    }

    fn int(&mut self, what: &str) -> Result<i64, String> {
        self.unit(what)?
            .0
            .as_int()
            .ok_or_else(|| format!("{what} is not an int"))
    }

    fn real(&mut self, what: &str) -> Result<f64, String> {
        self.unit(what)?
            .0
            .as_real()
            .ok_or_else(|| format!("{what} is not a real"))
    }

    fn text(&mut self, what: &str) -> Result<String, String> {
        match self.unit(what)?.0.as_text() {
            Some(s) => Ok(s.to_string()),
            None => Err(format!("{what} is not text")),
        }
    }

    /// An outcome body, checked, and its kind; its bytes are kept as
    /// written.
    fn body(&mut self) -> Result<(i64, Arc<[u8]>), String> {
        let (unit, bytes) = self.unit("outcome body")?;
        Ok((OutcomeBody::from_unit(&unit)?.kind(), bytes.into()))
    }
}

impl State {
    /// Replay one record, read in place from its frame payload.
    fn apply(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut r = Fields(UnitReader::new(payload));
        let arity = r.tuple("record")?;
        let tag = r.int("record tag")?;
        let want = match tag {
            R_REGISTER => 4,
            R_ADMIT => 6,
            R_OUTCOME => 5,
            R_ACK => 3,
            R_SNAPSHOT => 3,
            other => return Err(format!("unknown journal record tag {other}")),
        };
        if arity != want {
            return Err(format!("record {tag} has {arity} fields, not {want}"));
        }
        match tag {
            R_REGISTER => {
                let tenant = TenantRec {
                    name: r.text("tenant")?,
                    weight: r.int("weight")?.max(0) as u32,
                    token: r.int("token")? as u64,
                    next_rseq: 1,
                    acked: 0,
                    failed: 0,
                };
                self.add_tenant(tenant);
            }
            R_ADMIT => {
                let idx = self.tenant(&r.text("tenant")?)?;
                let seq = r.int("seq")? as u64;
                let job = JobState::Pending {
                    root: r.int("root")?.max(0) as u32,
                    level: r.int("level")?.max(0) as u32,
                    tol: r.real("tol")?,
                };
                self.jobs.insert((idx, seq), job);
            }
            R_OUTCOME => {
                let idx = self.tenant(&r.text("tenant")?)?;
                let seq = r.int("seq")? as u64;
                let rseq = r.int("rseq")? as u64;
                let (kind, body) = r.body()?;
                self.outcome(idx, seq, rseq, kind, body);
            }
            R_ACK => {
                let idx = self.tenant(&r.text("tenant")?)?;
                self.ack(idx, r.int("ack")? as u64);
            }
            _ => {
                *self = State::default();
                for _ in 0..r.tuple("snapshot tenants")? {
                    r.tuple_of(6, "snapshot tenant")?;
                    let tenant = TenantRec {
                        name: r.text("tenant")?,
                        weight: r.int("weight")?.max(0) as u32,
                        token: r.int("token")? as u64,
                        next_rseq: r.int("next rseq")? as u64,
                        acked: r.int("acked")? as u64,
                        failed: r.int("failed")? as u64,
                    };
                    self.add_tenant(tenant);
                }
                for _ in 0..r.tuple("snapshot jobs")? {
                    r.tuple_of(3, "snapshot job")?;
                    let idx = self.tenant(&r.text("tenant")?)?;
                    let seq = r.int("seq")? as u64;
                    let fields = r.tuple("snapshot job state")?;
                    let job = match (r.int("job kind")?, fields) {
                        (0, 4) => JobState::Pending {
                            root: r.int("root")?.max(0) as u32,
                            level: r.int("level")?.max(0) as u32,
                            tol: r.real("tol")?,
                        },
                        (1, 3) => {
                            let rseq = r.int("rseq")? as u64;
                            let (kind, body) = r.body()?;
                            JobState::Outcome { rseq, kind, body }
                        }
                        (kind, n) => {
                            return Err(format!("unknown snapshot job kind {kind} with {n} fields"))
                        }
                    };
                    self.jobs.insert((idx, seq), job);
                }
            }
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

    fn outcome(&mut self, idx: usize, seq: u64, rseq: u64, kind: i64, body: Arc<[u8]>) {
        let tn = &mut self.tenants[idx];
        tn.next_rseq = tn.next_rseq.max(rseq + 1);
        if kind == O_FAIL {
            tn.failed += 1;
        }
        self.jobs
            .insert((idx, seq), JobState::Outcome { rseq, kind, body });
    }

    /// Raise the ack watermark and drop the outcomes it covers — the
    /// in-memory side of compaction (the on-disk side happens at the next
    /// rotation snapshot).
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

    /// The snapshot record's bytes before its first job entry: the tuple
    /// head, the record tag, every tenant, and the jobs' tuple head.
    fn snapshot_prefix(&self) -> io::Result<Vec<u8>> {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                Unit::tuple(vec![
                    Unit::text(&t.name),
                    Unit::int(t.weight as i64),
                    Unit::int(t.token as i64),
                    Unit::int(t.next_rseq as i64),
                    Unit::int(t.acked as i64),
                    Unit::int(t.failed as i64),
                ])
            })
            .collect();
        let mut out = record(&[Unit::int(R_SNAPSHOT), Unit::tuple(tenants)], 1)?;
        out.extend(record(&[], self.jobs.len())?);
        Ok(out)
    }

    /// One job's snapshot entry; an outcome's entry stops before its body,
    /// whose journaled bytes follow it verbatim.
    fn entry_head(&self, (idx, seq): (usize, u64), job: &JobState) -> io::Result<Vec<u8>> {
        let tenant = Unit::text(&self.tenants[idx].name);
        match job {
            JobState::Pending { root, level, tol } => record(
                &[
                    tenant,
                    Unit::int(seq as i64),
                    Unit::tuple(vec![
                        Unit::int(0),
                        Unit::int(*root as i64),
                        Unit::int(*level as i64),
                        Unit::real(*tol),
                    ]),
                ],
                0,
            ),
            JobState::Outcome { rseq, .. } => {
                let mut out = record(&[tenant, Unit::int(seq as i64)], 1)?;
                out.extend(record(&[Unit::int(1), Unit::int(*rseq as i64)], 1)?);
                Ok(out)
            }
        }
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
    /// Journaled replies above the client's watermark, in `rseq` order —
    /// queue these to the session before processing anything else on it.
    pub replay: Vec<ServeMsg>,
}

/// Outcome of [`Journal::admit`].
#[derive(Debug)]
pub enum Admit {
    /// Journaled; hand the job to admission.
    New,
    /// Already admitted and still in flight — the reply will come; drop
    /// this duplicate on the floor.
    DuplicatePending,
    /// A terminal outcome is already journaled: resend it (original
    /// `rseq`, so the client's dedup decides) instead of re-executing.
    Replay(Box<ServeMsg>),
}

struct Inner {
    cfg: JournalConfig,
    state: State,
    file: File,
    seg_index: u64,
    seg_bytes: u64,
    /// Bytes of the active segment its snapshot (or bare header) took
    /// when it began: rotation waits for `segment_bytes` more.
    seg_base: u64,
    token_nonce: u64,
    /// The buffer a reply body is encoded into, reused across replies.
    encoded: Vec<u8>,
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
    let mut h = Vec::with_capacity(8);
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    h
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
        let mut segs: Vec<u64> = fs::read_dir(&cfg.dir)?
            .filter_map(|e| {
                let name = e.ok()?.file_name().to_string_lossy().into_owned();
                let idx = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
                idx.parse::<u64>().ok()
            })
            .collect();
        segs.sort_unstable();

        let mut state = State::default();
        let (file, seg_index, seg_bytes) = if segs.is_empty() {
            let index = 1;
            let path = cfg.dir.join(seg_name(index));
            let mut f = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&path)?;
            f.write_all(&seg_header())?;
            (f, index, 8u64)
        } else {
            let last = *segs.last().unwrap();
            for &idx in &segs {
                let path = cfg.dir.join(seg_name(idx));
                let bytes = fs::read(&path)?;
                let bad = |what: String| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("journal segment {}: {what}", path.display()),
                    )
                };
                if bytes.len() < 8 || &bytes[..4] != MAGIC {
                    return Err(bad("not a journal segment (bad magic)".into()));
                }
                let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
                if version != JOURNAL_VERSION {
                    return Err(bad(format!(
                        "layout version {version}, this build reads {JOURNAL_VERSION}"
                    )));
                }
                // Each record is read in place from the segment image, and
                // a frame is bounded by the bytes left in it: a snapshot
                // may be larger than any frame the wire accepts.
                let mut rest = &bytes[8..];
                loop {
                    match frame::split_frame(rest) {
                        Ok(Some((payload, after))) => {
                            state
                                .apply(payload)
                                .map_err(|e| bad(format!("record replay: {e}")))?;
                            rest = after;
                        }
                        Ok(None) => break,
                        Err(e) if idx == last => {
                            // The one record a crash can tear is the last
                            // append of the final segment: drop it. The
                            // write it guarded was never acknowledged.
                            eprintln!(
                                "journal: truncating torn tail of {} at byte {} ({e})",
                                path.display(),
                                bytes.len() - rest.len()
                            );
                            break;
                        }
                        Err(e) => {
                            return Err(bad(format!(
                                "corrupt record at byte {} of a non-final segment: {e}",
                                bytes.len() - rest.len()
                            )))
                        }
                    }
                }
                if idx == last {
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len((bytes.len() - rest.len()) as u64)?;
                }
            }
            let path = cfg.dir.join(seg_name(last));
            let mut f = OpenOptions::new().append(true).open(&path)?;
            let len = f.seek(io::SeekFrom::End(0))?;
            (f, last, len)
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
                    seg_base: seg_header().len() as u64,
                    token_nonce,
                    encoded: Vec::new(),
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
    /// legitimate client never received.
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
                let mut replay: Vec<(u64, u64, &[u8])> = inner
                    .state
                    .jobs
                    .range((idx, 0)..=(idx, u64::MAX))
                    .filter_map(|(&(_, seq), s)| match s {
                        JobState::Outcome { rseq, body, .. } if *rseq > last_reply => {
                            Some((*rseq, seq, &body[..]))
                        }
                        _ => None,
                    })
                    .collect();
                replay.sort_by_key(|&(rseq, ..)| rseq);
                Ok(Resume {
                    token: known,
                    replay: replay
                        .into_iter()
                        .map(|(rseq, seq, body)| {
                            OutcomeBody::decode(body)
                                .map(|b| b.into_msg(seq, rseq))
                                .map_err(|e| format!("journal replay: {e}"))
                        })
                        .collect::<Result<_, _>>()?,
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
                let rec = record(
                    &[
                        Unit::int(R_REGISTER),
                        Unit::text(tenant),
                        Unit::int(weight as i64),
                        Unit::int(minted as i64),
                    ],
                    0,
                )
                .map_err(|e| format!("journal register: {e}"))?;
                inner
                    .append(&rec, &[], |s| {
                        s.add_tenant(TenantRec {
                            name: tenant.to_string(),
                            weight,
                            token: minted,
                            next_rseq: 1,
                            acked: 0,
                            failed: 0,
                        })
                    })
                    .map_err(|e| format!("journal register: {e}"))?;
                Ok(Resume {
                    token: minted,
                    replay: Vec::new(),
                })
            }
        }
    }

    /// Journal an admission *before* it enters the admission queue.
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
            Some(JobState::Outcome { rseq, kind, body }) if *kind != O_REJECT => {
                let body = OutcomeBody::decode(body).map_err(invalid)?;
                return Ok(Admit::Replay(Box::new(body.into_msg(seq, *rseq))));
            }
            // A journaled Reject is not terminal: the client is retrying
            // after backpressure, so fall through and re-admit.
            Some(JobState::Outcome { .. }) | None => {}
        }
        let rec = record(
            &[
                Unit::int(R_ADMIT),
                Unit::text(tenant),
                Unit::int(seq as i64),
                Unit::int(root as i64),
                Unit::int(level as i64),
                Unit::real(tol),
            ],
            0,
        )?;
        inner.append(&rec, &[], |s| {
            s.jobs
                .insert((idx, seq), JobState::Pending { root, level, tol });
        })?;
        Ok(Admit::New)
    }

    /// Journal an outcome *before* it is sent, assigning and returning
    /// its reply sequence. The body is encoded once: the record carries
    /// those bytes, and the journal keeps them until the reply is acked.
    pub fn record_outcome(&self, tenant: &str, seq: u64, body: &OutcomeBody) -> io::Result<u64> {
        let mut g = self.inner.lock().unwrap();
        let inner = &mut *g;
        let idx = *inner.state.by_name.get(tenant).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("outcome for unregistered tenant {tenant:?}"),
            )
        })?;
        let rseq = inner.state.tenants[idx].next_rseq;
        // The body goes through a buffer the journal reuses, so the one
        // fresh allocation per reply is the copy it keeps.
        inner.encoded.clear();
        wire::encode_unit(&body.to_unit(), &mut inner.encoded).map_err(invalid)?;
        let bytes: Arc<[u8]> = inner.encoded[..].into();
        let head = record(
            &[
                Unit::int(R_OUTCOME),
                Unit::text(tenant),
                Unit::int(seq as i64),
                Unit::int(rseq as i64),
            ],
            1,
        )?;
        let kind = body.kind();
        inner.append(&head, &bytes, |s| {
            s.outcome(idx, seq, rseq, kind, Arc::clone(&bytes))
        })?;
        Ok(rseq)
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
    /// snapshot holds it.
    fn append(
        &mut self,
        head: &[u8],
        body: &[u8],
        apply: impl FnOnce(&mut State),
    ) -> io::Result<()> {
        frame::write_frame_parts(&mut self.file, head, body)?;
        if self.cfg.fsync {
            self.file.sync_data()?;
        }
        self.seg_bytes += (HEADER_LEN + head.len() + body.len()) as u64;
        apply(&mut self.state);
        self.rotate_if_full();
        Ok(())
    }

    fn append_ack(&mut self, idx: usize, upto: u64) -> io::Result<()> {
        let rec = record(
            &[
                Unit::int(R_ACK),
                Unit::text(&self.state.tenants[idx].name),
                Unit::int(upto as i64),
            ],
            0,
        )?;
        self.append(&rec, &[], |s| s.ack(idx, upto))
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

    /// Start a new segment headed by a snapshot of live state, then drop
    /// the older segments — compaction of everything already acked. The
    /// new segment is written under a temporary name and renamed into
    /// place, so a crash leaves the old segments whole.
    fn rotate(&mut self) -> io::Result<()> {
        let next = self.seg_index + 1;
        let path = self.cfg.dir.join(seg_name(next));
        let tmp = self.cfg.dir.join(format!("{}.tmp", seg_name(next)));
        let (file, len) = self
            .write_snapshot(&tmp)
            .and_then(|written| fs::rename(&tmp, &path).map(|()| written))
            .inspect_err(|_| {
                let _ = fs::remove_file(&tmp);
            })?;
        self.file = file;
        for old in 1..next {
            let _ = fs::remove_file(self.cfg.dir.join(seg_name(old)));
        }
        self.seg_index = next;
        self.seg_bytes = len;
        self.seg_base = len;
        Ok(())
    }

    /// Write a segment holding only the snapshot record to `path`,
    /// streamed one job entry at a time — an outcome's body goes out as
    /// its journaled bytes — with the frame's length and CRC patched in
    /// at the end. Returns the file, positioned at its end for appends,
    /// and its length.
    fn write_snapshot(&self, path: &Path) -> io::Result<(File, u64)> {
        let mut out = BufWriter::new(File::create(path)?);
        let seg_header = seg_header();
        out.write_all(&seg_header)?;
        out.write_all(&[0; HEADER_LEN])?;
        let mut crc = Crc32::new();
        let mut len = 0u64;
        let mut put = |out: &mut BufWriter<File>, bytes: &[u8]| {
            crc.update(bytes);
            len += bytes.len() as u64;
            out.write_all(bytes)
        };
        put(&mut out, &self.state.snapshot_prefix()?)?;
        for (&key, job) in &self.state.jobs {
            put(&mut out, &self.state.entry_head(key, job)?)?;
            if let JobState::Outcome { body, .. } = job {
                put(&mut out, body)?;
            }
        }
        let header = frame::frame_header(len, crc.finish())?;
        let mut file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.seek(io::SeekFrom::Start(seg_header.len() as u64))?;
        file.write_all(&header)?;
        if self.cfg.fsync {
            file.sync_all()?;
        }
        let end = file.seek(io::SeekFrom::End(0))?;
        Ok((file, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// The whole snapshot as one unit, built the way every existing
    /// journal's snapshots were: the byte oracle for the streamed rotation.
    fn snapshot_unit(state: &State) -> Unit {
        let tenants = state
            .tenants
            .iter()
            .map(|t| {
                Unit::tuple(vec![
                    Unit::text(&t.name),
                    Unit::int(t.weight as i64),
                    Unit::int(t.token as i64),
                    Unit::int(t.next_rseq as i64),
                    Unit::int(t.acked as i64),
                    Unit::int(t.failed as i64),
                ])
            })
            .collect();
        let jobs = state
            .jobs
            .iter()
            .map(|(&(idx, seq), s)| {
                let job = match s {
                    JobState::Pending { root, level, tol } => Unit::tuple(vec![
                        Unit::int(0),
                        Unit::int(*root as i64),
                        Unit::int(*level as i64),
                        Unit::real(*tol),
                    ]),
                    JobState::Outcome { rseq, body, .. } => Unit::tuple(vec![
                        Unit::int(1),
                        Unit::int(*rseq as i64),
                        transport::decode_unit(body).expect("a journaled body decodes"),
                    ]),
                };
                Unit::tuple(vec![
                    Unit::text(&state.tenants[idx].name),
                    Unit::int(seq as i64),
                    job,
                ])
            })
            .collect();
        Unit::tuple(vec![
            Unit::int(R_SNAPSHOT),
            Unit::tuple(tenants),
            Unit::tuple(jobs),
        ])
    }

    fn encode_record(u: &Unit) -> Vec<u8> {
        transport::frame_vec(&transport::encode_unit_vec(u).unwrap())
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
        assert_eq!(r2.replay.len(), 1);
        match &r2.replay[0] {
            ServeMsg::Done {
                seq,
                rseq,
                combined,
                ..
            } => {
                assert_eq!((*seq, *rseq), (1, 1));
                assert_eq!(combined, &vec![1.0, 1.5]);
            }
            other => panic!("unexpected replay {other:?}"),
        }
        // Resubmitting the finished seq replays, not re-executes.
        assert!(matches!(
            j2.admit("acme", 1, 2, 1, 1e-3).unwrap(),
            Admit::Replay(_)
        ));
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
        assert_eq!(r.replay.len(), 1, "only the unacked reject replays");
        assert!(matches!(
            r.replay[0],
            ServeMsg::Reject {
                seq: 2,
                rseq: 2,
                ..
            }
        ));
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
        Vec<ServeMsg>,
    );

    fn recovered(dir: &Path, tenants: &[(&str, u64)]) -> Recovered {
        let (j, rec) = Journal::open(JournalConfig::new(dir)).unwrap();
        let replay = tenants
            .iter()
            .flat_map(|&(name, tok)| j.register(name, 1, tok, 0).unwrap().replay)
            .collect();
        (rec.tenants, rec.pending, rec.unacked_outcomes, replay)
    }

    /// A streamed rotation writes, byte for byte, the segment the whole
    /// snapshot unit framed at once gives — the layout every existing
    /// journal was written in — and recovers the same state from it.
    #[test]
    fn a_rotation_writes_the_snapshot_oracles_bytes() {
        let dir = tmp_dir("oracle");
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
        assert_eq!(before.2, 4, "a's Fail, Reject and Done, and b's Done");

        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let mut g = j.inner.lock().unwrap();
        let oracle = [seg_header(), encode_record(&snapshot_unit(&g.state))].concat();
        g.rotate().unwrap();
        let next = g.seg_index;
        drop(g);
        drop(j);
        assert_eq!(fs::read(dir.join(seg_name(next))).unwrap(), oracle);
        assert!(!dir.join(seg_name(next - 1)).exists());
        assert_eq!(recovered(&dir, &[("a", a), ("b", b)]), before);
        let _ = fs::remove_dir_all(&dir);
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
            let replay = j.register("a", 1, tok.get(), 0).unwrap().replay;
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

    /// The record that fills a segment is durable before the rotation
    /// starts, so a rotation that fails costs the append nothing: it is
    /// tried again at the next one.
    #[test]
    fn a_failed_rotation_keeps_the_record_and_retries() {
        let dir = tmp_dir("rot-fail");
        let (j, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        j.register("a", 1, 0, 0).unwrap();
        // A directory where the snapshot's temp file goes fails the write.
        let blocker = dir.join(format!("{}.tmp", seg_name(2)));
        fs::create_dir(&blocker).unwrap();
        j.inner.lock().unwrap().cfg.segment_bytes = 1;
        assert!(matches!(j.admit("a", 1, 2, 1, 1e-3).unwrap(), Admit::New));
        assert_eq!(j.inner.lock().unwrap().seg_index, 1);
        fs::remove_dir(&blocker).unwrap();
        j.admit("a", 2, 2, 1, 1e-3).unwrap();
        assert_eq!(j.inner.lock().unwrap().seg_index, 2);
        assert_eq!(segment_count(&j), 1);
        drop(j);
        let (_j, rec) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let pending: Vec<u64> = rec.pending.iter().map(|p| p.seq).collect();
        assert_eq!(pending, vec![1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A snapshot is one frame, and one larger than the wire's
    /// `MAX_FRAME` is still read back whole: a journal frame is bounded
    /// by its segment, not by what a peer may send.
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
            Admit::Replay(msg) => match *msg {
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
}
