//! A blocking tenant-side client for `mf-served`.
//!
//! The daemon end is nonblocking and multiplexed; the tenant end does not
//! have to be. A [`TenantClient`] wraps one [`Conn`] (TCP or Unix), does
//! the `Hello`/`Welcome` handshake at connect time, and then exposes
//! plain send/recv over [`ServeMsg`] frames. Pipelining is the caller's
//! choice: `submit` any number of seqs, then `recv` replies as they
//! arrive — the load generator keeps `--inflight` of them open per
//! connection, the smoke tests keep one.
//!
//! Against a journaled daemon the client is also a *resumable* session:
//! the `Welcome` carries a resume token, every daemon reply carries a
//! per-tenant reply sequence (`rseq`), and [`TenantClient::resume`]
//! reconnects with `Hello{token, last_reply}` after a daemon crash or a
//! dropped socket. The daemon replays unacknowledged replies and the
//! client suppresses any it already consumed, so the caller sees each
//! reply exactly once no matter how many times the connection (or the
//! daemon) dies in between. The filter is a contiguous watermark plus a
//! set of `rseq`s seen ahead of it, because wire order is *not* `rseq`
//! order: a fresh outcome can land ahead of the `Hello` replay of older
//! ones, and a resubmitted seq's replay carries its old `rseq`. Open
//! submissions are tracked client-side and resubmitted on resume — the
//! daemon's journal dedups them by `(tenant, seq)`, so resubmission is
//! idempotent.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::time::Duration;

use transport::frame::{read_frame, write_frame};
use transport::{Addr, Conn};

use crate::backoff::Backoff;
use crate::proto::{ServeMsg, SERVE_PROTOCOL_VERSION};

/// How many consumed replies between automatic `Ack`s. Acks bound journal
/// replay length (and enable compaction), but each one is a frame — a
/// modest batch keeps the overhead invisible.
const ACK_EVERY: u64 = 32;

/// The client half of exactly-once delivery: admits each reply sequence
/// once, tolerating out-of-order arrival. `watermark` is the highest
/// rseq below which *everything* has been consumed; `ahead` holds the
/// rseqs consumed beyond a gap. Memory is bounded by the gap width, and
/// only the watermark is ever acknowledged to the daemon — an `Ack`
/// never covers a reply that was skipped over.
#[derive(Debug, Default)]
struct ReplyDedup {
    watermark: u64,
    ahead: BTreeSet<u64>,
}

impl ReplyDedup {
    /// First sighting of `rseq`? Advances the watermark over any
    /// now-contiguous prefix; returns false for a duplicate.
    fn admit(&mut self, rseq: u64) -> bool {
        if rseq <= self.watermark || !self.ahead.insert(rseq) {
            return false;
        }
        while self.ahead.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        true
    }
}

/// One connected, welcomed tenant session.
pub struct TenantClient {
    conn: Conn,
    session: u64,
    addr: Addr,
    tenant: String,
    weight: u32,
    /// Resume token from the daemon's `Welcome` (0 against a journal-less
    /// daemon — resume unavailable).
    token: u64,
    /// Exactly-once reply filter; its watermark is sent in `Hello` on
    /// resume and periodically acknowledged.
    dedup: ReplyDedup,
    /// Replies consumed since the last `Ack`.
    unacked: u64,
    /// Submitted seqs with no consumed reply yet, with their submit
    /// arguments so `resume` can resubmit them.
    open: HashMap<u64, (u32, u32, f64)>,
    /// Replayed replies the dedup filter swallowed (telemetry: proves the
    /// exactly-once filter actually fired).
    duplicates_suppressed: u64,
}

impl TenantClient {
    /// Connect and complete the `Hello{tenant,weight}` → `Welcome`
    /// handshake. `weight` 0 requests the daemon default.
    pub fn connect(addr: &Addr, tenant: &str, weight: u32) -> io::Result<TenantClient> {
        let conn = Conn::connect(addr, Duration::from_secs(5))?;
        let mut client = TenantClient {
            conn,
            session: 0,
            addr: addr.clone(),
            tenant: tenant.to_string(),
            weight,
            token: 0,
            dedup: ReplyDedup::default(),
            unacked: 0,
            open: HashMap::new(),
            duplicates_suppressed: 0,
        };
        client.handshake()?;
        Ok(client)
    }

    fn handshake(&mut self) -> io::Result<()> {
        self.send(&ServeMsg::Hello {
            version: SERVE_PROTOCOL_VERSION,
            tenant: self.tenant.clone(),
            weight: self.weight,
            token: self.token,
            last_reply: self.dedup.watermark,
        })?;
        match self.recv_raw()? {
            ServeMsg::Welcome { session, token } => {
                self.session = session;
                self.token = token;
                Ok(())
            }
            ServeMsg::Fail { error, .. } => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("daemon refused handshake: {error}"),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Welcome, got {other:?}"),
            )),
        }
    }

    /// The daemon-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The resume token (0 when the daemon offers no resume).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Can this session be resumed after a disconnect?
    pub fn resumable(&self) -> bool {
        self.token != 0
    }

    /// Replayed replies the exactly-once filter swallowed so far.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Read timeout for subsequent [`recv`](TenantClient::recv) calls
    /// (`None` blocks forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(t)
    }

    /// Send one message as one frame.
    pub fn send(&mut self, msg: &ServeMsg) -> io::Result<()> {
        let payload = msg.encode().map_err(io::Error::from)?;
        write_frame(&mut self.conn, &payload)
    }

    /// Queue job `seq`; replies carry the seq back, in service order.
    pub fn submit(&mut self, seq: u64, root: u32, level: u32, tol: f64) -> io::Result<()> {
        self.open.insert(seq, (root, level, tol));
        self.send(&ServeMsg::Submit {
            seq,
            root,
            level,
            tol,
        })
    }

    /// One frame off the wire, no dedup bookkeeping.
    fn recv_raw(&mut self) -> io::Result<ServeMsg> {
        match read_frame(&mut self.conn)? {
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the session",
            )),
            Some(payload) => ServeMsg::decode(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Block for the next daemon message the caller has *not* seen yet.
    ///
    /// Replayed (already-consumed) replies are counted and skipped —
    /// the filter tolerates arrival out of `rseq` order, so a reply
    /// overtaken on the wire by a higher-sequence one is still
    /// delivered, not mistaken for a duplicate. Every `ACK_EVERY`
    /// consumed replies an `Ack` flows back so the daemon can trim its
    /// journal. An orderly daemon-side close surfaces as
    /// `UnexpectedEof`.
    pub fn recv(&mut self) -> io::Result<ServeMsg> {
        loop {
            let msg = self.recv_raw()?;
            let (rseq, seq) = match &msg {
                ServeMsg::Done { seq, rseq, .. } => (*rseq, Some(*seq)),
                ServeMsg::Fail { seq, rseq, .. } => (*rseq, Some(*seq)),
                ServeMsg::Reject { seq, rseq, .. } => (*rseq, Some(*seq)),
                // Drained / Welcome / anything unnumbered: pass through.
                _ => (0, None),
            };
            if rseq > 0 {
                if !self.dedup.admit(rseq) {
                    self.duplicates_suppressed += 1;
                    continue;
                }
                self.unacked += 1;
                if self.unacked >= ACK_EVERY {
                    self.ack()?;
                }
            }
            if let Some(seq) = seq {
                self.open.remove(&seq);
            }
            return Ok(msg);
        }
    }

    /// Flush the consumed-reply watermark to the daemon now. Only the
    /// contiguous watermark is acknowledged: a reply still missing below
    /// an out-of-order arrival stays replayable.
    pub fn ack(&mut self) -> io::Result<()> {
        if self.unacked == 0 {
            return Ok(());
        }
        let upto = self.dedup.watermark;
        self.send(&ServeMsg::Ack { upto })?;
        self.unacked = 0;
        Ok(())
    }

    /// Reconnect and resume this session after a disconnect: redo the
    /// handshake with the saved token and consumed-reply watermark, then
    /// resubmit every open seq (the daemon's journal dedups in-flight and
    /// finished ones). Fails with `InvalidInput` when the session is not
    /// resumable (no token — daemon runs without a journal).
    pub fn resume(&mut self) -> io::Result<()> {
        if self.token == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "session has no resume token (daemon runs without a journal)",
            ));
        }
        self.conn = Conn::connect(&self.addr, Duration::from_secs(5))?;
        self.unacked = 0;
        self.handshake()?;
        let open: Vec<(u64, (u32, u32, f64))> = self.open.iter().map(|(s, a)| (*s, *a)).collect();
        for (seq, (root, level, tol)) in open {
            self.send(&ServeMsg::Submit {
                seq,
                root,
                level,
                tol,
            })?;
        }
        Ok(())
    }

    /// [`resume`](TenantClient::resume), retried under jittered
    /// exponential backoff — the reconnect path for a daemon that is
    /// still restarting. Gives up (returning the last error) after
    /// `max_attempts` failed tries.
    pub fn resume_with_backoff(
        &mut self,
        backoff: &mut Backoff,
        max_attempts: u32,
    ) -> io::Result<()> {
        let mut last = io::Error::other("no resume attempts made");
        for _ in 0..max_attempts {
            match self.resume() {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::InvalidInput => return Err(e),
                Err(e) => last = e,
            }
            std::thread::sleep(backoff.next(None));
        }
        Err(last)
    }

    /// Announce departure. Against a journal-less daemon, queued jobs
    /// are dropped daemon-side (solved for nobody). Against a journaled
    /// daemon, accepted work is durable: it still finishes, and its
    /// outcome waits in the journal for a future session of the same
    /// tenant.
    pub fn bye(mut self) -> io::Result<()> {
        let _ = self.ack();
        self.send(&ServeMsg::Bye)
    }
}

#[cfg(test)]
mod tests {
    use super::ReplyDedup;

    #[test]
    fn in_order_replies_advance_the_watermark() {
        let mut d = ReplyDedup::default();
        for rseq in 1..=5 {
            assert!(d.admit(rseq), "fresh rseq {rseq} must be admitted");
        }
        assert_eq!(d.watermark, 5);
        assert!(d.ahead.is_empty());
        assert!(!d.admit(3), "replay below the watermark is a duplicate");
    }

    /// The wire race the filter exists for: a higher rseq (reactor
    /// Reject, or a fresh Done overtaking the Hello replay) arrives
    /// before a lower one. The lower reply must still be admitted, not
    /// discarded as a duplicate.
    #[test]
    fn out_of_order_arrival_loses_nothing() {
        let mut d = ReplyDedup::default();
        assert!(d.admit(1));
        assert!(d.admit(3), "rseq 3 overtook rseq 2 on the wire");
        assert_eq!(d.watermark, 1, "ack watermark must not cover unseen 2");
        assert!(d.admit(2), "the overtaken reply is fresh, not a duplicate");
        assert_eq!(d.watermark, 3, "gap closed: watermark folds the run");
        assert!(d.ahead.is_empty());
    }

    #[test]
    fn duplicates_above_the_watermark_are_caught() {
        let mut d = ReplyDedup::default();
        assert!(d.admit(4));
        assert!(!d.admit(4), "replayed out-of-order rseq is a duplicate");
        assert_eq!(d.watermark, 0);
        // Replay of the whole window (a resume): 1..=4 where 4 was seen.
        assert!(d.admit(1));
        assert!(d.admit(2));
        assert!(d.admit(3));
        assert!(!d.admit(4));
        assert_eq!(d.watermark, 4);
    }
}
