//! The session protocol between a coordinator and one remote task
//! instance.
//!
//! Every message is a [`Unit`] tuple whose first element is an integer
//! discriminant, encoded with [`crate::wire`] and shipped as one frame.
//! Reusing the unit codec keeps the protocol at exactly one binary format
//! and gives messages the same bit-exactness guarantees as payloads.
//!
//! Session shape:
//!
//! ```text
//! child                         coordinator
//!   | -- Hello{ver,inst,host,uid} -->|   (child connects, introduces itself)
//!   |<-- HelloAck{inst,pool} ------- |   (identity accepted, pool assigned)
//!   |<-- Job{seq,payload} ---------- |
//!   | -- Heartbeat ----------------->|   (periodic while computing)
//!   | -- Done{seq,payload} --------->|   (or Fail{seq,error})
//!   |            ...                 |
//!   |<-- Leave{inst,reason} -------- |   (optional: retire this worker...)
//!   | -- Leave{inst,reason} -------->|   (...acknowledged, then close)
//!   |<-- Shutdown ------------------ |   (child closes the connection)
//! ```
//!
//! A child keeps no record of its own to ship: the coordinator's proxy
//! for it prints its §6 lines under the host and task uid of its `Hello`.

use manifold::Unit;

use crate::WireError;

/// Version of this session protocol; peers with different versions refuse
/// the handshake. Version 2 added the CRC-32 field to the frame header,
/// which is incompatible with version-1 framing on the wire. Version 3
/// added the job id to `Job`/`Done`/`Fail`, so one long-lived session can
/// carry work for many engine jobs and replies are attributable to the job
/// that issued them. Version 4 made membership elastic: `HelloAck` gained
/// the worker's pool (shard) assignment and `Leave` lets either side
/// retire a worker cleanly mid-run. Version 5 removed `Trace` (tag 7):
/// a child ships no trace, and tag 7 is now an unknown tag.
pub const PROTOCOL_VERSION: i64 = 5;

const T_HELLO: i64 = 0;
const T_HELLO_ACK: i64 = 1;
const T_JOB: i64 = 2;
const T_DONE: i64 = 3;
const T_FAIL: i64 = 4;
const T_HEARTBEAT: i64 = 5;
const T_SHUTDOWN: i64 = 6;
const T_LEAVE: i64 = 8;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Child → coordinator, first message on a fresh connection.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: i64,
        /// The task-instance slot this child was spawned for.
        instance: u64,
        /// The machine's real hostname (for §6 trace labels).
        host: String,
        /// The child's task-instance uid in the trace encoding.
        task_uid: u64,
    },
    /// Coordinator → child: handshake accepted.
    HelloAck {
        /// Echo of the instance slot.
        instance: u64,
        /// The pool (shard) this worker is assigned to serve. Flat
        /// (single-master) fleets always assign pool 0.
        pool: u64,
    },
    /// Coordinator → child: execute this job.
    Job {
        /// Request sequence number; the matching `Done`/`Fail` echoes it.
        seq: u64,
        /// Engine job this unit of work belongs to. A session survives
        /// across jobs, so every unit on the wire is tagged; the matching
        /// `Done`/`Fail` echoes it. One-shot runs use job 0.
        job: u64,
        /// Application payload (e.g. an encoded `subsolve` request).
        payload: Unit,
    },
    /// Child → coordinator: job finished.
    Done {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Echo of the request's engine-job id.
        job: u64,
        /// Application result payload.
        payload: Unit,
    },
    /// Child → coordinator: job failed on the far side.
    Fail {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Echo of the request's engine-job id.
        job: u64,
        /// Human-readable failure description.
        error: String,
    },
    /// Child → coordinator: still alive (sent periodically while a job
    /// computes, so slow jobs are distinguishable from dead children).
    Heartbeat,
    /// Coordinator → child: finish up and exit cleanly.
    Shutdown,
    /// Membership departure, either direction. Coordinator → child: retire
    /// this worker (the child acknowledges with its own `Leave` and
    /// exits). Child → coordinator: the worker is departing voluntarily;
    /// the coordinator removes it from the rotation without respawning it.
    Leave {
        /// The departing instance slot.
        instance: u64,
        /// Why (e.g. `retired`, `drain`, `host shutdown`) — for traces.
        reason: String,
    },
}

impl Message {
    /// Lower to the unit representation.
    pub fn to_unit(&self) -> Unit {
        match self {
            Message::Hello {
                version,
                instance,
                host,
                task_uid,
            } => Unit::tuple(vec![
                Unit::int(T_HELLO),
                Unit::int(*version),
                Unit::int(*instance as i64),
                Unit::text(host),
                Unit::int(*task_uid as i64),
            ]),
            Message::HelloAck { instance, pool } => Unit::tuple(vec![
                Unit::int(T_HELLO_ACK),
                Unit::int(*instance as i64),
                Unit::int(*pool as i64),
            ]),
            Message::Job { seq, job, payload } => Unit::tuple(vec![
                Unit::int(T_JOB),
                Unit::int(*seq as i64),
                Unit::int(*job as i64),
                payload.clone(),
            ]),
            Message::Done { seq, job, payload } => Unit::tuple(vec![
                Unit::int(T_DONE),
                Unit::int(*seq as i64),
                Unit::int(*job as i64),
                payload.clone(),
            ]),
            Message::Fail { seq, job, error } => Unit::tuple(vec![
                Unit::int(T_FAIL),
                Unit::int(*seq as i64),
                Unit::int(*job as i64),
                Unit::text(error),
            ]),
            Message::Heartbeat => Unit::tuple(vec![Unit::int(T_HEARTBEAT)]),
            Message::Shutdown => Unit::tuple(vec![Unit::int(T_SHUTDOWN)]),
            Message::Leave { instance, reason } => Unit::tuple(vec![
                Unit::int(T_LEAVE),
                Unit::int(*instance as i64),
                Unit::text(reason),
            ]),
        }
    }

    /// Parse from the unit representation.
    pub fn from_unit(unit: &Unit) -> Result<Message, String> {
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
        let text = |i: usize| -> Result<String, String> {
            items
                .get(i)
                .and_then(Unit::as_text)
                .map(str::to_string)
                .ok_or_else(|| format!("field {i} is not text"))
        };
        let payload = |i: usize| -> Result<Unit, String> {
            items
                .get(i)
                .cloned()
                .ok_or_else(|| format!("field {i} missing"))
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
                arity(5)?;
                Ok(Message::Hello {
                    version: int(1)?,
                    instance: int(2)? as u64,
                    host: text(3)?,
                    task_uid: int(4)? as u64,
                })
            }
            T_HELLO_ACK => {
                arity(3)?;
                Ok(Message::HelloAck {
                    instance: int(1)? as u64,
                    pool: int(2)? as u64,
                })
            }
            T_JOB => {
                arity(4)?;
                Ok(Message::Job {
                    seq: int(1)? as u64,
                    job: int(2)? as u64,
                    payload: payload(3)?,
                })
            }
            T_DONE => {
                arity(4)?;
                Ok(Message::Done {
                    seq: int(1)? as u64,
                    job: int(2)? as u64,
                    payload: payload(3)?,
                })
            }
            T_FAIL => {
                arity(4)?;
                Ok(Message::Fail {
                    seq: int(1)? as u64,
                    job: int(2)? as u64,
                    error: text(3)?,
                })
            }
            T_HEARTBEAT => {
                arity(1)?;
                Ok(Message::Heartbeat)
            }
            T_SHUTDOWN => {
                arity(1)?;
                Ok(Message::Shutdown)
            }
            T_LEAVE => {
                arity(3)?;
                Ok(Message::Leave {
                    instance: int(1)? as u64,
                    reason: text(2)?,
                })
            }
            other => Err(format!("unknown message tag {other}")),
        }
    }

    /// Encode to wire bytes (one frame payload).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        crate::wire::encode_unit_vec(&self.to_unit())
    }

    /// Decode from one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Message, String> {
        let unit = crate::wire::decode_unit(bytes).map_err(|e| e.to_string())?;
        Message::from_unit(&unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_messages_round_trip() {
        let msgs = vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                instance: 3,
                host: "node7.cluster".into(),
                task_uid: (4u64 + 1) << 18 | 2,
            },
            Message::HelloAck {
                instance: 3,
                pool: 1,
            },
            Message::Job {
                seq: 17,
                job: 4,
                payload: Unit::tuple(vec![Unit::int(5), Unit::reals(vec![1.0, -0.5])]),
            },
            Message::Done {
                seq: 17,
                job: 4,
                payload: Unit::reals(vec![0.25; 33]),
            },
            Message::Fail {
                seq: 18,
                job: 4,
                error: "subsolve diverged".into(),
            },
            Message::Heartbeat,
            Message::Shutdown,
            Message::Leave {
                instance: 3,
                reason: "retired".into(),
            },
        ];
        for m in msgs {
            let bytes = m.encode().unwrap();
            assert_eq!(Message::decode(&bytes).unwrap(), m, "round trip {m:?}");
        }
    }

    #[test]
    fn garbage_rejected_with_reason() {
        assert!(Message::decode(&[]).is_err());
        let not_tuple = crate::wire::encode_unit_vec(&Unit::int(2)).unwrap();
        assert!(Message::decode(&not_tuple).unwrap_err().contains("tuple"));
        let bad_tag = Message::from_unit(&Unit::tuple(vec![Unit::int(99)]));
        assert!(bad_tag.unwrap_err().contains("99"));
        let bad_arity = Message::from_unit(&Unit::tuple(vec![Unit::int(T_JOB)]));
        assert!(bad_arity.unwrap_err().contains("arity"));
    }
}
