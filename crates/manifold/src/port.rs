//! Ports: the openings in a process's bounding walls.
//!
//! A process can only communicate by reading units from its own *input*
//! ports and writing units to its own *output* ports; it never names the
//! process at the other end. Which streams are attached to a port — and
//! hence where its data comes from or goes to — is decided entirely by
//! coordinators (exogenous coordination).
//!
//! Semantics implemented here, matching MANIFOLD:
//!
//! * **Reading** from a port takes a unit from any attached incoming stream
//!   (a nondeterministic merge; here a fair scan). If no unit is available
//!   the reader blocks — possibly until a *future* stream is attached and
//!   fed. Streams whose source is disconnected and whose buffer is drained
//!   are pruned transparently.
//! * **Writing** to a port delivers a copy of the unit to *every* attached
//!   outgoing stream. If no stream is attached, the writer blocks until a
//!   coordinator attaches one; the unit is never dropped silently.
//! * Both operations are kill-aware and return [`MfError::Killed`] when the
//!   owning process is torn down.
//! * A carrier thread blocked in either one hands its runnable slot to a
//!   queued process body for the duration (see
//!   [`Environment::activate`](crate::env::Environment::activate)).

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{MfError, MfResult};
use crate::ident::{Name, ProcessId};
use crate::pool;
use crate::process::Waker;
use crate::stream::Stream;
use crate::unit::Unit;

struct PortInner {
    incoming: Vec<Arc<Stream>>,
    outgoing: Vec<Arc<Stream>>,
    killed: bool,
    /// Fair-scan cursor over `incoming`.
    cursor: usize,
}

/// A named port belonging to one process.
pub struct Port {
    owner: ProcessId,
    name: Name,
    inner: Mutex<PortInner>,
    cv: Condvar,
    /// Set on the ports of a stepped process: the owner has no thread
    /// blocked on the condition, so a poke steps it instead.
    waker: Option<Waker>,
}

impl Port {
    /// Create a port owned by `owner`.
    pub fn new(owner: ProcessId, name: impl Into<Name>) -> Arc<Port> {
        Self::build(owner, name.into(), None)
    }

    /// Create a port of a stepped process: every [`Port::poke`] also calls
    /// `waker`, on the poking thread, with no port lock held.
    pub(crate) fn with_waker(owner: ProcessId, name: impl Into<Name>, waker: Waker) -> Arc<Port> {
        Self::build(owner, name.into(), Some(waker))
    }

    fn build(owner: ProcessId, name: Name, waker: Option<Waker>) -> Arc<Port> {
        Arc::new(Port {
            owner,
            name,
            inner: Mutex::new(PortInner {
                incoming: Vec::new(),
                outgoing: Vec::new(),
                killed: false,
                cursor: 0,
            }),
            cv: Condvar::new(),
            waker,
        })
    }

    /// The owning process.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// The port's name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Wake all readers/writers blocked on this port so they can re-examine
    /// state. Called by streams after a push and by the kill path.
    pub fn poke(&self) {
        {
            let _guard = self.inner.lock();
            self.cv.notify_all();
        }
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }

    /// Mark the owner killed; all blocked operations return
    /// [`MfError::Killed`].
    pub fn kill(&self) {
        let mut inner = self.inner.lock();
        inner.killed = true;
        self.cv.notify_all();
    }

    /// Attach `stream` as an incoming stream (its sink end feeds this port).
    pub fn attach_incoming(self: &Arc<Self>, stream: &Arc<Stream>) {
        {
            let mut inner = self.inner.lock();
            inner.incoming.push(stream.clone());
        }
        stream.set_snk_port(Some(Arc::downgrade(self)), true);
        self.poke();
    }

    /// Attach `stream` as an outgoing stream (this port is its source).
    pub fn attach_outgoing(self: &Arc<Self>, stream: &Arc<Stream>) {
        {
            let mut inner = self.inner.lock();
            inner.outgoing.push(stream.clone());
        }
        stream.set_src_port(Some(Arc::downgrade(self)), true);
        self.poke();
    }

    /// Remove `stream` from the incoming set (sink-side disconnect).
    pub fn remove_incoming(&self, stream: &Arc<Stream>) {
        let mut inner = self.inner.lock();
        inner.incoming.retain(|s| !Arc::ptr_eq(s, stream));
        inner.cursor = 0;
        self.cv.notify_all();
    }

    /// Remove `stream` from the outgoing set (source-side disconnect).
    pub fn remove_outgoing(&self, stream: &Arc<Stream>) {
        let mut inner = self.inner.lock();
        inner.outgoing.retain(|s| !Arc::ptr_eq(s, stream));
        self.cv.notify_all();
    }

    /// Number of currently attached incoming streams.
    pub fn incoming_count(&self) -> usize {
        self.inner.lock().incoming.len()
    }

    /// Number of currently attached outgoing streams.
    pub fn outgoing_count(&self) -> usize {
        self.inner.lock().outgoing.len()
    }

    fn scan_incoming(inner: &mut PortInner) -> Option<Unit> {
        // Prune drained-dead streams first so they never starve the scan.
        inner.incoming.retain(|s| !s.is_drained_dead());
        let n = inner.incoming.len();
        if n == 0 {
            return None;
        }
        let start = inner.cursor % n;
        for k in 0..n {
            let i = (start + k) % n;
            if let Some(u) = inner.incoming[i].try_pop() {
                inner.cursor = (i + 1) % n;
                return Some(u);
            }
        }
        None
    }

    /// Non-blocking read.
    pub fn try_read(&self) -> Option<Unit> {
        let mut inner = self.inner.lock();
        Self::scan_incoming(&mut inner)
    }

    /// Blocking read: wait until a unit arrives through any incoming stream.
    pub fn read(&self) -> MfResult<Unit> {
        let mut inner = self.inner.lock();
        loop {
            if inner.killed {
                return Err(MfError::Killed);
            }
            if let Some(u) = Self::scan_incoming(&mut inner) {
                return Ok(u);
            }
            pool::blocking(|| self.cv.wait(&mut inner));
        }
    }

    /// Blocking read with a deadline.
    pub fn read_timeout(&self, timeout: Duration) -> MfResult<Unit> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if inner.killed {
                return Err(MfError::Killed);
            }
            if let Some(u) = Self::scan_incoming(&mut inner) {
                return Ok(u);
            }
            if Instant::now() >= deadline {
                return Err(MfError::Timeout);
            }
            if pool::blocking(|| self.cv.wait_until(&mut inner, deadline)).timed_out() {
                return Self::scan_incoming(&mut inner).ok_or(MfError::Timeout);
            }
        }
    }

    /// Blocking write: wait until at least one outgoing stream is attached,
    /// then deliver a copy of `unit` to every attached stream.
    pub fn write(&self, unit: Unit) -> MfResult<()> {
        let streams = {
            let mut inner = self.inner.lock();
            loop {
                if inner.killed {
                    return Err(MfError::Killed);
                }
                if !inner.outgoing.is_empty() {
                    break inner.outgoing.clone();
                }
                pool::blocking(|| self.cv.wait(&mut inner));
            }
        };
        // Deliver outside the port lock: pushes poke *other* ports.
        for s in &streams {
            s.push(unit.clone());
        }
        Ok(())
    }

    /// Write only if a stream is already attached; `false` otherwise.
    pub fn try_write(&self, unit: Unit) -> MfResult<bool> {
        let streams = {
            let inner = self.inner.lock();
            if inner.killed {
                return Err(MfError::Killed);
            }
            if inner.outgoing.is_empty() {
                return Ok(false);
            }
            inner.outgoing.clone()
        };
        for s in &streams {
            s.push(unit.clone());
        }
        Ok(true)
    }
}

impl std::fmt::Debug for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Port")
            .field("owner", &self.owner)
            .field("name", &self.name)
            .field("incoming", &inner.incoming.len())
            .field("outgoing", &inner.outgoing.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamType;
    use std::thread;

    fn pid(n: u64) -> ProcessId {
        ProcessId(n)
    }

    fn wire(src: &Arc<Port>, dst: &Arc<Port>, ty: StreamType) -> Arc<Stream> {
        let s = Stream::new(ty);
        src.attach_outgoing(&s);
        dst.attach_incoming(&s);
        s
    }

    #[test]
    fn end_to_end_transfer() {
        let out = Port::new(pid(1), "output");
        let inp = Port::new(pid(2), "input");
        wire(&out, &inp, StreamType::BK);
        out.write(Unit::int(5)).unwrap();
        assert_eq!(inp.read().unwrap().as_int(), Some(5));
    }

    #[test]
    fn write_blocks_until_connected() {
        let out = Port::new(pid(1), "output");
        let inp = Port::new(pid(2), "input");
        let out2 = out.clone();
        let h = thread::spawn(move || out2.write(Unit::int(9)));
        thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "write should block with no stream");
        wire(&out, &inp, StreamType::BK);
        h.join().unwrap().unwrap();
        assert_eq!(inp.read().unwrap().as_int(), Some(9));
    }

    #[test]
    fn read_blocks_until_data() {
        let out = Port::new(pid(1), "output");
        let inp = Port::new(pid(2), "input");
        wire(&out, &inp, StreamType::BK);
        let inp2 = inp.clone();
        let h = thread::spawn(move || inp2.read());
        thread::sleep(Duration::from_millis(10));
        out.write(Unit::text("late")).unwrap();
        assert_eq!(h.join().unwrap().unwrap().as_text(), Some("late"));
    }

    #[test]
    fn read_sees_data_through_future_stream() {
        // MANIFOLD semantics: a reader blocked on an unconnected port is
        // satisfied when a coordinator later attaches a fed stream.
        let inp = Port::new(pid(2), "input");
        let inp2 = inp.clone();
        let h = thread::spawn(move || inp2.read());
        thread::sleep(Duration::from_millis(10));
        let s = Stream::preloaded(StreamType::BK, [Unit::int(1)]);
        inp.attach_incoming(&s);
        assert_eq!(h.join().unwrap().unwrap().as_int(), Some(1));
    }

    #[test]
    fn write_fans_out_to_all_streams() {
        let out = Port::new(pid(1), "output");
        let a = Port::new(pid(2), "input");
        let b = Port::new(pid(3), "input");
        wire(&out, &a, StreamType::BK);
        wire(&out, &b, StreamType::BK);
        out.write(Unit::int(3)).unwrap();
        assert_eq!(a.read().unwrap().as_int(), Some(3));
        assert_eq!(b.read().unwrap().as_int(), Some(3));
    }

    #[test]
    fn drained_dead_streams_are_pruned() {
        let inp = Port::new(pid(2), "input");
        let s = Stream::preloaded(StreamType::BK, [Unit::int(1)]);
        inp.attach_incoming(&s);
        assert_eq!(inp.incoming_count(), 1);
        assert_eq!(inp.read().unwrap().as_int(), Some(1));
        assert!(inp.try_read().is_none());
        assert_eq!(inp.incoming_count(), 0, "drained stream pruned");
    }

    #[test]
    fn bk_break_lets_sink_drain() {
        let out = Port::new(pid(1), "output");
        let inp = Port::new(pid(2), "input");
        let s = wire(&out, &inp, StreamType::BK);
        out.write(Unit::int(11)).unwrap();
        s.dismantle(); // break at source
        assert_eq!(out.outgoing_count(), 0);
        assert_eq!(inp.read().unwrap().as_int(), Some(11));
    }

    #[test]
    fn kill_unblocks_reader_and_writer() {
        let inp = Port::new(pid(2), "input");
        let inp2 = inp.clone();
        let h = thread::spawn(move || inp2.read());
        thread::sleep(Duration::from_millis(10));
        inp.kill();
        assert_eq!(h.join().unwrap(), Err(MfError::Killed));

        let out = Port::new(pid(1), "output");
        let out2 = out.clone();
        let h = thread::spawn(move || out2.write(Unit::int(0)));
        thread::sleep(Duration::from_millis(10));
        out.kill();
        assert_eq!(h.join().unwrap(), Err(MfError::Killed));
    }

    #[test]
    fn read_timeout_expires() {
        let inp = Port::new(pid(2), "input");
        let r = inp.read_timeout(Duration::from_millis(20));
        assert_eq!(r, Err(MfError::Timeout));
    }

    #[test]
    fn fair_merge_across_streams() {
        let a = Port::new(pid(1), "output");
        let b = Port::new(pid(2), "output");
        let inp = Port::new(pid(3), "input");
        wire(&a, &inp, StreamType::BK);
        wire(&b, &inp, StreamType::BK);
        for _ in 0..10 {
            a.write(Unit::int(1)).unwrap();
            b.write(Unit::int(2)).unwrap();
        }
        let mut from_a = 0;
        let mut from_b = 0;
        for _ in 0..20 {
            match inp.read().unwrap().as_int().unwrap() {
                1 => from_a += 1,
                2 => from_b += 1,
                _ => unreachable!(),
            }
        }
        assert_eq!(from_a, 10);
        assert_eq!(from_b, 10);
    }

    #[test]
    fn try_write_without_stream() {
        let out = Port::new(pid(1), "output");
        assert!(!out.try_write(Unit::int(1)).unwrap());
        let inp = Port::new(pid(2), "input");
        wire(&out, &inp, StreamType::BK);
        assert!(out.try_write(Unit::int(1)).unwrap());
    }
}
