//! The tenant↔daemon session protocol.
//!
//! Tenants speak to `mf-served` the same way the coordinator speaks to its
//! remote task instances: every message is a [`Unit`] tuple with an
//! integer discriminant, encoded by [`transport::wire`] and shipped as one
//! CRC-framed [`transport::frame`]. Reusing that stack keeps the whole
//! system at exactly one binary format and gives served results the same
//! bit-exactness guarantee as worker payloads — the `combined` field in
//! [`ServeMsg::Done`] is the full solution vector, so a client can check
//! its reply bit-for-bit against a locally computed sequential oracle.
//!
//! Session shape (tenant side initiates):
//!
//! ```text
//! tenant                              daemon
//!   | -- Hello{ver,tenant,weight,token,last_reply} -->|
//!   |<-- Welcome{session,token} -------- |   (token resumes the session)
//!   |<-- Done{rseq,…} ------------------ |   (replay of unacked replies)
//!   | -- Submit{seq,root,level,tol} ---->|   (any number, pipelined)
//!   |<-- Done{seq,rseq,…,combined} ----- |   (or Fail{seq,rseq,error})
//!   |<-- Reject{seq,rseq,retry_after,…}- |   (backpressure: try later)
//!   | -- Ack{upto} --------------------->|   (replies ≤ upto delivered)
//!   | -- Drain ------------------------->|   (admin: finish and stop)
//!   |<-- Drained{served} --------------- |   (all accepted work done)
//!   | -- Bye --------------------------->|   (tenant departs)
//! ```
//!
//! `Submit`s are *pipelined*: a tenant may keep many in flight and replies
//! carry the request's `seq`, so one connection multiplexes a whole
//! closed-loop workload. A `Reject` is not an error — it is the admission
//! layer saying "my bounded queue for you is full (or I am draining, or
//! your fault budget is spent); come back in `retry_after_ms`".
//!
//! Version 2 adds crash-durable resume: against a journaled daemon every
//! reply additionally carries `rseq`, the tenant's monotonically increasing
//! *reply sequence*. A reconnecting tenant presents the `token` it was
//! issued in `Welcome` plus the highest `rseq` it has seen; the daemon
//! replays every journaled reply above that watermark (the client drops
//! anything at or below it, making delivery exactly-once), and `Ack{upto}`
//! lets the journal compact replies the client has durably consumed.
//! Against a journal-less daemon `rseq` and `token` are 0 and resume is
//! refused.

use manifold::Unit;
use transport::wire::{self, UnitReader};
use transport::WireError;

/// Version of the tenant session protocol; peers with different versions
/// refuse the handshake. Version 2 added resume tokens and reply
/// sequences (crash-durable serving).
pub const SERVE_PROTOCOL_VERSION: i64 = 2;

const T_HELLO: i64 = 100;
const T_WELCOME: i64 = 101;
const T_SUBMIT: i64 = 102;
const T_DONE: i64 = 103;
const T_FAIL: i64 = 104;
const T_REJECT: i64 = 105;
const T_DRAIN: i64 = 106;
const T_DRAINED: i64 = 107;
const T_BYE: i64 = 108;
const T_ACK: i64 = 109;

/// Why the admission layer refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's bounded queue is at capacity.
    QueueFull,
    /// The daemon is draining: accepted work finishes, new work does not.
    Draining,
    /// The tenant spent its fault budget; the operator must re-admit it.
    FaultBudgetExhausted,
    /// The requested level exceeds the fleet's provisioned capacity.
    OverCapacity,
}

impl RejectReason {
    fn code(self) -> i64 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::Draining => 1,
            RejectReason::FaultBudgetExhausted => 2,
            RejectReason::OverCapacity => 3,
        }
    }

    fn from_code(c: i64) -> Result<Self, String> {
        match c {
            0 => Ok(RejectReason::QueueFull),
            1 => Ok(RejectReason::Draining),
            2 => Ok(RejectReason::FaultBudgetExhausted),
            3 => Ok(RejectReason::OverCapacity),
            other => Err(format!("unknown reject reason {other}")),
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue full"),
            RejectReason::Draining => write!(f, "draining"),
            RejectReason::FaultBudgetExhausted => write!(f, "fault budget exhausted"),
            RejectReason::OverCapacity => write!(f, "over capacity"),
        }
    }
}

/// Which reply a `Done`, `Fail` or `Reject` message is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyKind {
    Done,
    Fail,
    Reject,
}

/// One tenant-session message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMsg {
    /// Tenant → daemon, first message on a fresh connection.
    Hello {
        /// Must equal [`SERVE_PROTOCOL_VERSION`].
        version: i64,
        /// Self-chosen tenant name (fair-share identity; sessions with the
        /// same name share one queue and one budget).
        tenant: String,
        /// Requested fair-share weight (clamped by the daemon).
        weight: u32,
        /// Resume token from a previous `Welcome`, or 0 for a fresh
        /// session. A journaled daemon replays unacknowledged replies to
        /// a resuming tenant; presenting a token the daemon does not
        /// recognise fails the handshake.
        token: u64,
        /// Highest reply sequence this tenant has already seen (0 when
        /// fresh). Replies at or below this are acknowledged by the
        /// handshake itself and are not replayed.
        last_reply: u64,
    },
    /// Daemon → tenant: session admitted.
    Welcome {
        /// Daemon-assigned session id.
        session: u64,
        /// Resume token for this tenant (stable across reconnects and
        /// daemon restarts); 0 when the daemon runs without a journal.
        token: u64,
    },
    /// Tenant → daemon: solve this problem.
    Submit {
        /// Tenant-chosen sequence number; the reply echoes it.
        seq: u64,
        /// Root refinement level of the problem.
        root: u32,
        /// Additional refinement above the root level.
        level: u32,
        /// Integrator tolerance.
        tol: f64,
    },
    /// Daemon → tenant: job served.
    Done {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Per-tenant reply sequence (monotonic; 0 without a journal).
        rseq: u64,
        /// Number of component grids the combination visited.
        grids: u64,
        /// Discrete L2 error of the combined solution.
        l2_error: f64,
        /// The full combined solution field — bit-identical to a solo
        /// sequential run of the same (root, level, tol).
        combined: Vec<f64>,
    },
    /// Daemon → tenant: the job was accepted but failed in the engine.
    Fail {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Per-tenant reply sequence (monotonic; 0 without a journal).
        rseq: u64,
        /// Human-readable failure description.
        error: String,
    },
    /// Daemon → tenant: submission refused at admission.
    Reject {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Per-tenant reply sequence (monotonic; 0 without a journal).
        rseq: u64,
        /// Suggested back-off before retrying.
        retry_after_ms: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Tenant → daemon: every reply with `rseq <= upto` has been durably
    /// consumed; the journal may compact them. Only meaningful against a
    /// journaled daemon (otherwise ignored).
    Ack {
        /// Highest consumed reply sequence.
        upto: u64,
    },
    /// Tenant → daemon: finish accepted work, then shut down. (The daemon
    /// honours SIGTERM identically.)
    Drain,
    /// Daemon → tenant: drain complete; connection closes after this.
    Drained {
        /// Jobs served over the daemon's whole life.
        served: u64,
    },
    /// Tenant → daemon: this session is leaving (its queued jobs are
    /// dropped, its in-flight jobs are discarded on completion).
    Bye,
}

impl ServeMsg {
    /// Lower to the unit representation.
    pub fn to_unit(&self) -> Unit {
        self.clone().into_unit()
    }

    /// Lower to the unit representation, moving the fields in: a `Done`'s
    /// field becomes the unit's without a copy. The one layout of every
    /// message, the journal's replies included.
    pub(crate) fn into_unit(self) -> Unit {
        match self {
            ServeMsg::Hello {
                version,
                tenant,
                weight,
                token,
                last_reply,
            } => Unit::tuple(vec![
                Unit::int(T_HELLO),
                Unit::int(version),
                Unit::text(tenant),
                Unit::int(weight as i64),
                Unit::int(token as i64),
                Unit::int(last_reply as i64),
            ]),
            ServeMsg::Welcome { session, token } => Unit::tuple(vec![
                Unit::int(T_WELCOME),
                Unit::int(session as i64),
                Unit::int(token as i64),
            ]),
            ServeMsg::Submit {
                seq,
                root,
                level,
                tol,
            } => Unit::tuple(vec![
                Unit::int(T_SUBMIT),
                Unit::int(seq as i64),
                Unit::int(root as i64),
                Unit::int(level as i64),
                Unit::real(tol),
            ]),
            ServeMsg::Done {
                seq,
                rseq,
                grids,
                l2_error,
                combined,
            } => Unit::tuple(vec![
                Unit::int(T_DONE),
                Unit::int(seq as i64),
                Unit::int(rseq as i64),
                Unit::int(grids as i64),
                Unit::real(l2_error),
                Unit::reals(combined),
            ]),
            ServeMsg::Fail { seq, rseq, error } => Unit::tuple(vec![
                Unit::int(T_FAIL),
                Unit::int(seq as i64),
                Unit::int(rseq as i64),
                Unit::text(error),
            ]),
            ServeMsg::Reject {
                seq,
                rseq,
                retry_after_ms,
                reason,
            } => Unit::tuple(vec![
                Unit::int(T_REJECT),
                Unit::int(seq as i64),
                Unit::int(rseq as i64),
                Unit::int(retry_after_ms as i64),
                Unit::int(reason.code()),
            ]),
            ServeMsg::Ack { upto } => Unit::tuple(vec![Unit::int(T_ACK), Unit::int(upto as i64)]),
            ServeMsg::Drain => Unit::tuple(vec![Unit::int(T_DRAIN)]),
            ServeMsg::Drained { served } => {
                Unit::tuple(vec![Unit::int(T_DRAINED), Unit::int(served as i64)])
            }
            ServeMsg::Bye => Unit::tuple(vec![Unit::int(T_BYE)]),
        }
    }

    /// Parse from the unit representation.
    pub fn from_unit(unit: &Unit) -> Result<ServeMsg, String> {
        let items = unit.as_tuple().ok_or("message is not a tuple")?;
        let tag = items
            .first()
            .and_then(Unit::as_int)
            .ok_or("message has no integer tag")?;
        let int = |i: usize| -> Result<i64, String> {
            items
                .get(i)
                .and_then(Unit::as_int)
                .ok_or_else(|| format!("field {i} is not an int"))
        };
        let real = |i: usize| -> Result<f64, String> {
            items
                .get(i)
                .and_then(Unit::as_real)
                .ok_or_else(|| format!("field {i} is not a real"))
        };
        let text = |i: usize| -> Result<String, String> {
            items
                .get(i)
                .and_then(Unit::as_text)
                .map(str::to_string)
                .ok_or_else(|| format!("field {i} is not text"))
        };
        let arity = |n: usize| -> Result<(), String> {
            if items.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "tag {tag}: expected arity {n}, got {}",
                    items.len()
                ))
            }
        };
        match tag {
            T_HELLO => {
                arity(6)?;
                Ok(ServeMsg::Hello {
                    version: int(1)?,
                    tenant: text(2)?,
                    weight: int(3)?.max(0) as u32,
                    token: int(4)? as u64,
                    last_reply: int(5)? as u64,
                })
            }
            T_WELCOME => {
                arity(3)?;
                Ok(ServeMsg::Welcome {
                    session: int(1)? as u64,
                    token: int(2)? as u64,
                })
            }
            T_SUBMIT => {
                arity(5)?;
                // The integrator's error controller divides by `tol`: a NaN
                // never accepts a step (the job runs out its step budget),
                // an infinite one accepts every step, and zero or a
                // negative value is no tolerance at all.
                let tol = real(4)?;
                if !(tol.is_finite() && tol > 0.0) {
                    return Err(format!("submit tolerance {tol} is not finite and positive"));
                }
                Ok(ServeMsg::Submit {
                    seq: int(1)? as u64,
                    root: int(2)?.max(0) as u32,
                    level: int(3)?.max(0) as u32,
                    tol,
                })
            }
            T_DONE => {
                arity(6)?;
                let combined = items
                    .get(5)
                    .and_then(Unit::as_reals)
                    .ok_or("field 5 is not a reals vector")?;
                Ok(ServeMsg::Done {
                    seq: int(1)? as u64,
                    rseq: int(2)? as u64,
                    grids: int(3)? as u64,
                    l2_error: real(4)?,
                    combined: combined.as_ref().clone(),
                })
            }
            T_FAIL => {
                arity(4)?;
                Ok(ServeMsg::Fail {
                    seq: int(1)? as u64,
                    rseq: int(2)? as u64,
                    error: text(3)?,
                })
            }
            T_REJECT => {
                arity(5)?;
                Ok(ServeMsg::Reject {
                    seq: int(1)? as u64,
                    rseq: int(2)? as u64,
                    retry_after_ms: int(3)? as u64,
                    reason: RejectReason::from_code(int(4)?)?,
                })
            }
            T_ACK => {
                arity(2)?;
                Ok(ServeMsg::Ack {
                    upto: int(1)? as u64,
                })
            }
            T_DRAIN => {
                arity(1)?;
                Ok(ServeMsg::Drain)
            }
            T_DRAINED => {
                arity(2)?;
                Ok(ServeMsg::Drained {
                    served: int(1)? as u64,
                })
            }
            T_BYE => {
                arity(1)?;
                Ok(ServeMsg::Bye)
            }
            other => Err(format!("unknown serve message tag {other}")),
        }
    }

    /// Check the reply message `r` is at, in place: the tag, arity and
    /// field types [`ServeMsg::from_unit`] checks, without building the
    /// message or a copy of its field. Its `seq`, `rseq` and kind; an
    /// error for whatever `from_unit` refuses and for a message that is
    /// not a reply.
    pub(crate) fn check_reply(r: &mut UnitReader<'_>) -> Result<(u64, u64, ReplyKind), String> {
        let items = r.tuple().map_err(|e| format!("message: {e}"))?;
        if items == 0 {
            return Err("message has no integer tag".into());
        }
        let tag = r.int().map_err(|_| "message has no integer tag")?;
        let (kind, want) = match tag {
            T_DONE => (ReplyKind::Done, 6),
            T_FAIL => (ReplyKind::Fail, 4),
            T_REJECT => (ReplyKind::Reject, 5),
            other => return Err(format!("message tag {other} is not a reply")),
        };
        if items != want {
            return Err(format!("tag {tag}: expected arity {want}, got {items}"));
        }
        let field = |e: WireError| format!("tag {tag}: {e}");
        let seq = r.int().map_err(field)? as u64;
        let rseq = r.int().map_err(field)? as u64;
        match kind {
            ReplyKind::Done => {
                r.int().map_err(field)?;
                r.real().map_err(field)?;
                r.skip_reals().map_err(field)?;
            }
            ReplyKind::Fail => {
                r.text().map_err(field)?;
            }
            ReplyKind::Reject => {
                r.int().map_err(field)?;
                RejectReason::from_code(r.int().map_err(field)?)?;
            }
        }
        Ok((seq, rseq, kind))
    }

    /// Encode to wire bytes (one frame payload).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        wire::encode_unit_vec(&self.to_unit())
    }

    /// Decode from one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<ServeMsg, String> {
        let unit = wire::decode_unit(bytes).map_err(|e| e.to_string())?;
        ServeMsg::from_unit(&unit)
    }

    /// Encode and frame in one step (header + payload bytes, ready for a
    /// socket write).
    pub fn to_frame(&self) -> Result<Vec<u8>, WireError> {
        self.clone().into_frame()
    }

    /// Encode straight into a frame, behind room left for its header,
    /// moving the fields in: the frame is the one buffer the message
    /// takes.
    pub(crate) fn into_frame(self) -> Result<Vec<u8>, WireError> {
        let mut frame = Vec::with_capacity(64);
        frame.resize(transport::HEADER_LEN, 0);
        wire::encode_unit(&self.into_unit(), &mut frame)?;
        transport::frame::seal_frame(&mut frame);
        Ok(frame)
    }
}

/// FNV-1a over the bit patterns of a float field — the compact witness of
/// bit-identity used across the benches and the serve layer.
pub fn field_checksum(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_messages_round_trip() {
        let msgs = vec![
            ServeMsg::Hello {
                version: SERVE_PROTOCOL_VERSION,
                tenant: "team-red".into(),
                weight: 4,
                token: 0xdead_beef,
                last_reply: 41,
            },
            ServeMsg::Welcome {
                session: 9,
                token: 0xdead_beef,
            },
            ServeMsg::Submit {
                seq: 17,
                root: 1,
                level: 3,
                tol: 1e-3,
            },
            ServeMsg::Done {
                seq: 17,
                rseq: 42,
                grids: 7,
                l2_error: 3.5e-4,
                combined: vec![0.0, -1.5, 2.25],
            },
            ServeMsg::Fail {
                seq: 18,
                rseq: 43,
                error: "engine: subsolve diverged".into(),
            },
            ServeMsg::Reject {
                seq: 19,
                rseq: 44,
                retry_after_ms: 25,
                reason: RejectReason::QueueFull,
            },
            ServeMsg::Ack { upto: 44 },
            ServeMsg::Drain,
            ServeMsg::Drained { served: 4096 },
            ServeMsg::Bye,
        ];
        for m in msgs {
            let bytes = m.encode().unwrap();
            assert_eq!(ServeMsg::decode(&bytes).unwrap(), m, "round trip {m:?}");
        }
    }

    #[test]
    fn reject_reasons_round_trip() {
        for r in [
            RejectReason::QueueFull,
            RejectReason::Draining,
            RejectReason::FaultBudgetExhausted,
            RejectReason::OverCapacity,
        ] {
            assert_eq!(RejectReason::from_code(r.code()).unwrap(), r);
        }
        assert!(RejectReason::from_code(77).is_err());
    }

    #[test]
    fn garbage_rejected_with_reason() {
        assert!(ServeMsg::decode(&[]).is_err());
        let bad_tag = ServeMsg::from_unit(&Unit::tuple(vec![Unit::int(55)]));
        assert!(bad_tag.unwrap_err().contains("55"));
        let bad_arity = ServeMsg::from_unit(&Unit::tuple(vec![Unit::int(102)]));
        assert!(bad_arity.unwrap_err().contains("arity"));
    }

    #[test]
    fn submit_tolerance_must_be_finite_and_positive() {
        let submit = |tol: f64| ServeMsg::Submit {
            seq: 1,
            root: 1,
            level: 2,
            tol,
        };
        for tol in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1e-3] {
            let bytes = submit(tol).encode().unwrap();
            let err = ServeMsg::decode(&bytes).unwrap_err();
            assert!(err.contains("tolerance"), "tol {tol}: {err}");
        }
        for tol in [1e-4, f64::MIN_POSITIVE, 1e3] {
            let bytes = submit(tol).encode().unwrap();
            assert_eq!(ServeMsg::decode(&bytes).unwrap(), submit(tol));
        }
    }

    #[test]
    fn checksum_distinguishes_bit_patterns() {
        assert_ne!(field_checksum(&[0.0]), field_checksum(&[-0.0]));
        assert_eq!(field_checksum(&[1.5, 2.5]), field_checksum(&[1.5, 2.5]));
    }
}
