//! Streams: asynchronous channels between ports, with MANIFOLD dismantling
//! semantics.
//!
//! A stream is an unbounded FIFO of [`Unit`]s with a *source* end (attached
//! to some process's output port) and a *sink* end (attached to some
//! process's input port). Streams are always created and attached by a
//! coordinator — never by the processes at their ends (exogenous
//! coordination).
//!
//! When the coordinator state that created a stream is preempted, the stream
//! is *dismantled* according to its [`StreamType`]:
//!
//! * `BK` (**B**reak source / **K**eep sink) — the default. The stream is
//!   disconnected from its producer, but the consumer keeps it and may still
//!   drain the units already buffered inside. This is what the paper relies
//!   on for most connections.
//! * `KK` (Keep / Keep) — the stream survives preemption entirely. The paper
//!   uses this (§4.2, line 32) for the `worker -> master.dataport` result
//!   stream, which must stay intact while the coordinator moves on to create
//!   the next worker.
//! * `BB` (Break / Break) — both ends disconnected; buffered units are lost.
//! * `KB` (Keep source / Break sink) — the producer keeps writing into the
//!   stream, but the consumer is disconnected.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::port::Port;
use crate::unit::Unit;

static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(1);

/// Dismantling behaviour of a stream upon preemption of the state that
/// created it. See the module docs for the meaning of each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StreamType {
    /// Break at source, keep at sink (MANIFOLD's default).
    #[default]
    BK,
    /// Keep both ends: the stream survives preemption.
    KK,
    /// Break both ends.
    BB,
    /// Keep source, break sink.
    KB,
}

struct StreamInner {
    queue: VecDeque<Unit>,
    src_open: bool,
    snk_open: bool,
    src_port: Option<Weak<Port>>,
    snk_port: Option<Weak<Port>>,
}

/// An asynchronous FIFO channel between an output port and an input port.
pub struct Stream {
    id: u64,
    ty: StreamType,
    inner: Mutex<StreamInner>,
}

impl Stream {
    /// Create a fresh, unattached stream of the given type.
    pub fn new(ty: StreamType) -> Arc<Stream> {
        Arc::new(Stream {
            id: NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed),
            ty,
            inner: Mutex::new(StreamInner {
                queue: VecDeque::new(),
                src_open: true,
                snk_open: false,
                src_port: None,
                snk_port: None,
            }),
        })
    }

    /// Create a stream pre-loaded with units whose source is a constant (the
    /// MANIFOLD idiom `&worker -> master`: the unit is produced by the
    /// coordinator itself, not by a process port). The source end is closed
    /// immediately, so the sink sees the units and then a drained stream.
    pub fn preloaded(ty: StreamType, units: impl IntoIterator<Item = Unit>) -> Arc<Stream> {
        let s = Stream::new(ty);
        {
            let mut inner = s.inner.lock();
            inner.queue.extend(units);
            inner.src_open = false;
        }
        s
    }

    /// Unique id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Append a unit at the source end and wake the sink port's readers.
    pub fn push(&self, unit: Unit) {
        let snk = {
            let mut inner = self.inner.lock();
            inner.queue.push_back(unit);
            inner.snk_port.clone()
        };
        if let Some(p) = snk.and_then(|w| w.upgrade()) {
            p.poke();
        }
    }

    /// Remove the unit at the sink end, if any.
    pub fn try_pop(&self) -> Option<Unit> {
        self.inner.lock().queue.pop_front()
    }

    /// True when the source is disconnected and no buffered units remain —
    /// the sink can prune the stream.
    pub fn is_drained_dead(&self) -> bool {
        let inner = self.inner.lock();
        !inner.src_open && inner.queue.is_empty()
    }

    /// Is the source end currently attached/open?
    #[cfg(test)]
    pub(crate) fn source_open(&self) -> bool {
        self.inner.lock().src_open
    }

    /// Number of buffered units.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True when no units are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn set_src_port(&self, p: Option<Weak<Port>>, open: bool) {
        let mut inner = self.inner.lock();
        inner.src_port = p;
        inner.src_open = open;
    }

    pub(crate) fn set_snk_port(&self, p: Option<Weak<Port>>, open: bool) {
        let mut inner = self.inner.lock();
        inner.snk_port = p;
        inner.snk_open = open;
    }

    fn src_port(&self) -> Option<Arc<Port>> {
        self.inner.lock().src_port.clone().and_then(|w| w.upgrade())
    }

    fn snk_port(&self) -> Option<Arc<Port>> {
        self.inner.lock().snk_port.clone().and_then(|w| w.upgrade())
    }

    /// Disconnect the stream from its producer. Buffered units remain
    /// readable by the sink; once drained the sink will prune the stream.
    pub(crate) fn break_source(self: &Arc<Self>) {
        let src = self.src_port();
        {
            let mut inner = self.inner.lock();
            inner.src_open = false;
            inner.src_port = None;
        }
        if let Some(p) = src {
            p.remove_outgoing(self);
        }
        if let Some(p) = self.snk_port() {
            // Wake readers so they can observe the drained-dead state.
            p.poke();
        }
    }

    /// Disconnect the stream from its consumer. Buffered units become
    /// unreachable unless the stream is reattached to a new sink.
    pub(crate) fn break_sink(self: &Arc<Self>) {
        let snk = self.snk_port();
        {
            let mut inner = self.inner.lock();
            inner.snk_open = false;
            inner.snk_port = None;
        }
        if let Some(p) = snk {
            p.remove_incoming(self);
        }
    }

    /// Apply this stream's dismantling policy (called on state preemption).
    pub fn dismantle(self: &Arc<Self>) {
        match self.ty {
            StreamType::BK => self.break_source(),
            StreamType::KK => {}
            StreamType::BB => {
                self.break_source();
                self.break_sink();
            }
            StreamType::KB => self.break_sink(),
        }
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Stream")
            .field("id", &self.id)
            .field("ty", &self.ty)
            .field("buffered", &inner.queue.len())
            .field("src_open", &inner.src_open)
            .field("snk_open", &inner.snk_open)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let s = Stream::new(StreamType::BK);
        s.push(Unit::int(1));
        s.push(Unit::int(2));
        assert_eq!(s.try_pop().unwrap().as_int(), Some(1));
        assert_eq!(s.try_pop().unwrap().as_int(), Some(2));
        assert!(s.try_pop().is_none());
    }

    #[test]
    fn preloaded_is_drained_dead_after_reading() {
        let s = Stream::preloaded(StreamType::BK, [Unit::int(7)]);
        assert!(!s.is_drained_dead());
        assert_eq!(s.try_pop().unwrap().as_int(), Some(7));
        assert!(s.is_drained_dead());
    }

    #[test]
    fn bk_dismantle_keeps_buffered_units() {
        let s = Stream::new(StreamType::BK);
        s.push(Unit::int(42));
        s.dismantle();
        assert!(!s.source_open());
        assert_eq!(s.try_pop().unwrap().as_int(), Some(42));
        assert!(s.is_drained_dead());
    }

    #[test]
    fn kk_dismantle_is_noop() {
        let s = Stream::new(StreamType::KK);
        s.push(Unit::int(1));
        s.dismantle();
        assert!(s.source_open());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bb_dismantle_breaks_both() {
        let s = Stream::new(StreamType::BB);
        s.push(Unit::int(1));
        s.dismantle();
        assert!(!s.source_open());
    }

    #[test]
    fn default_type_is_bk() {
        assert_eq!(StreamType::default(), StreamType::BK);
    }

    #[test]
    fn ids_are_unique() {
        let a = Stream::new(StreamType::BK);
        let b = Stream::new(StreamType::BK);
        assert_ne!(a.id(), b.id());
    }
}
