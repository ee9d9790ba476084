//! Events and event memories.
//!
//! Events are the control mechanism of MANIFOLD: a process *raises* an event,
//! the occurrence is broadcast to its observers, and each observer stores the
//! occurrence in its private **event memory** until it is handled (causing a
//! state transition in a coordinator) or explicitly ignored.
//!
//! Fidelity notes:
//!
//! * An event memory has **set semantics**: it holds at most one occurrence
//!   of a given *(event, source)* pair, exactly as in IWIM. Two workers
//!   raising `death_worker` are two distinct occurrences (different
//!   sources); one worker raising it twice before it is handled collapses
//!   into one.
//! * Waiting on a list of patterns honours **priority**: patterns earlier in
//!   the list win when several occurrences are present (the paper's
//!   `priority create_worker > rendezvous` declaration becomes pattern
//!   ordering).
//! * Process termination is delivered through the same mechanism as a
//!   special occurrence, which is how the `terminated(p)` primitive of the
//!   language is implemented without a second wait queue.

use parking_lot::{Condvar, Mutex};

use crate::error::{MfError, MfResult};
use crate::ident::{Name, ProcessId};
use crate::pool;

/// A named event. Construct with [`Event::new`] or from a `&str`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Event(pub Name);

impl Event {
    /// Create an event with the given name.
    pub fn new(name: impl Into<Name>) -> Self {
        Event(name.into())
    }

    /// The event's name.
    pub fn name(&self) -> &Name {
        &self.0
    }
}

impl From<&str> for Event {
    fn from(s: &str) -> Self {
        Event::new(s)
    }
}

/// What kind of occurrence sits in an event memory.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An ordinary named event raised by a process.
    Named(Name),
    /// The source process terminated (drives the `terminated(p)` primitive).
    Terminated,
}

/// An event occurrence: an event together with the identity of the process
/// that raised it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventOccurrence {
    /// The kind (named event or termination notice).
    pub kind: EventKind,
    /// The raising process.
    pub source: ProcessId,
}

impl EventOccurrence {
    /// Occurrence of a named event.
    pub fn named(name: impl Into<Name>, source: ProcessId) -> Self {
        EventOccurrence {
            kind: EventKind::Named(name.into()),
            source,
        }
    }

    /// Occurrence signalling that `source` terminated.
    pub fn terminated(source: ProcessId) -> Self {
        EventOccurrence {
            kind: EventKind::Terminated,
            source,
        }
    }

    /// The event name if this is a named occurrence.
    pub fn name(&self) -> Option<&Name> {
        match &self.kind {
            EventKind::Named(n) => Some(n),
            EventKind::Terminated => None,
        }
    }

    /// True when this occurrence signals termination of `p`.
    pub fn is_termination_of(&self, p: ProcessId) -> bool {
        self.kind == EventKind::Terminated && self.source == p
    }
}

/// A pattern against which occurrences are matched when a process waits.
///
/// In a wait list, the *position* of a pattern is its priority (earlier =
/// higher), mirroring MANIFOLD's `priority a > b` declarations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventPattern {
    /// Any occurrence of the named event, from any source.
    Named(Name),
    /// An occurrence of the named event from the specific source.
    NamedFrom(Name, ProcessId),
    /// Termination of the specific process.
    Terminated(ProcessId),
    /// Any occurrence whatsoever (used by drain loops).
    Any,
}

impl EventPattern {
    /// Convenience constructor for [`EventPattern::Named`].
    pub fn named(name: impl Into<Name>) -> Self {
        EventPattern::Named(name.into())
    }

    /// Does the occurrence match this pattern?
    pub fn matches(&self, occ: &EventOccurrence) -> bool {
        match self {
            EventPattern::Named(n) => occ.name() == Some(n),
            EventPattern::NamedFrom(n, p) => occ.name() == Some(n) && occ.source == *p,
            EventPattern::Terminated(p) => occ.is_termination_of(*p),
            EventPattern::Any => true,
        }
    }
}

impl From<&str> for EventPattern {
    fn from(s: &str) -> Self {
        EventPattern::named(s)
    }
}

/// The private event memory of a process.
///
/// Occurrences are delivered asynchronously by the environment and removed
/// when a wait matches them. The memory is kill-aware: killing the owner
/// wakes every waiter with [`MfError::Killed`].
pub struct EventMemory {
    inner: Mutex<MemInner>,
    cv: Condvar,
}

struct MemInner {
    occurrences: Vec<EventOccurrence>,
    killed: bool,
    /// Patterns of the waits currently blocked, and how many there are. An
    /// occurrence none of them matches stays in memory without waking
    /// anyone: it preempts nothing until a state asks for it.
    awaited: Vec<EventPattern>,
    waiters: usize,
}

impl MemInner {
    /// Block on `cv` until something one of `patterns` matches arrives
    /// (or the owner is killed). A carrier hands its slot on meanwhile.
    fn wait(
        inner: &mut parking_lot::MutexGuard<'_, MemInner>,
        cv: &Condvar,
        patterns: &[EventPattern],
    ) {
        inner.awaited.extend_from_slice(patterns);
        inner.waiters += 1;
        pool::blocking(|| cv.wait(inner));
        inner.waiters -= 1;
        if inner.waiters == 0 {
            inner.awaited.clear();
        }
    }
}

impl Default for EventMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl EventMemory {
    /// Create an empty memory.
    pub fn new() -> Self {
        EventMemory {
            inner: Mutex::new(MemInner {
                occurrences: Vec::new(),
                killed: false,
                awaited: Vec::new(),
                waiters: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Deliver an occurrence. Returns `true` if it was inserted, `false` if
    /// an identical *(kind, source)* occurrence was already pending (set
    /// semantics).
    pub fn deliver(&self, occ: EventOccurrence) -> bool {
        let mut inner = self.inner.lock();
        if inner.occurrences.contains(&occ) {
            return false;
        }
        if inner.awaited.iter().any(|p| p.matches(&occ)) {
            self.cv.notify_all();
        }
        inner.occurrences.push(occ);
        true
    }

    /// Mark the owner killed and wake all waiters.
    pub fn kill(&self) {
        let mut inner = self.inner.lock();
        inner.killed = true;
        self.cv.notify_all();
    }

    /// Has the owner been killed?
    pub fn is_killed(&self) -> bool {
        self.inner.lock().killed
    }

    /// Remove every pending occurrence of the named event (the `ignore`
    /// declarative statement, applied on block exit).
    pub fn purge_named(&self, name: &Name) {
        let mut inner = self.inner.lock();
        inner.occurrences.retain(|o| o.name() != Some(name));
    }

    /// Number of pending occurrences.
    pub fn len(&self) -> usize {
        self.inner.lock().occurrences.len()
    }

    /// True when no occurrences are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking: remove and return the highest-priority matching
    /// occurrence, if any. Returns the index of the matched pattern too.
    pub fn try_select(&self, patterns: &[EventPattern]) -> Option<(usize, EventOccurrence)> {
        let mut inner = self.inner.lock();
        Self::select_locked(&mut inner, patterns)
    }

    fn select_locked(
        inner: &mut MemInner,
        patterns: &[EventPattern],
    ) -> Option<(usize, EventOccurrence)> {
        for (pi, pat) in patterns.iter().enumerate() {
            if let Some(oi) = inner.occurrences.iter().position(|o| pat.matches(o)) {
                let occ = inner.occurrences.remove(oi);
                return Some((pi, occ));
            }
        }
        None
    }

    /// Block until an occurrence matches one of `patterns`; remove and
    /// return it together with the index of the pattern that matched.
    ///
    /// Pattern order is priority order. Within one pattern, occurrences are
    /// consumed in delivery (FIFO) order.
    pub fn wait_select(&self, patterns: &[EventPattern]) -> MfResult<(usize, EventOccurrence)> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(hit) = Self::select_locked(&mut inner, patterns) {
                return Ok(hit);
            }
            if inner.killed {
                return Err(MfError::Killed);
            }
            MemInner::wait(&mut inner, &self.cv, patterns);
        }
    }

    /// Block until an occurrence matching one of `patterns` is in the
    /// memory, and leave it there: the blocking counterpart of a stepped
    /// process's wake, for a caller that drives a step function from a
    /// thread of its own — step, and when the step is pending, wait here
    /// for what it is pending on.
    pub fn wait_present(&self, patterns: &[EventPattern]) -> MfResult<()> {
        let mut inner = self.inner.lock();
        loop {
            if inner
                .occurrences
                .iter()
                .any(|o| patterns.iter().any(|p| p.matches(o)))
            {
                return Ok(());
            }
            if inner.killed {
                return Err(MfError::Killed);
            }
            MemInner::wait(&mut inner, &self.cv, patterns);
        }
    }

    /// Snapshot of pending occurrences (diagnostics / tests).
    pub fn snapshot(&self) -> Vec<EventOccurrence> {
        self.inner.lock().occurrences.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn p(n: u64) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn set_semantics_collapse_same_source() {
        let m = EventMemory::new();
        assert!(m.deliver(EventOccurrence::named("e", p(1))));
        assert!(!m.deliver(EventOccurrence::named("e", p(1))));
        assert!(m.deliver(EventOccurrence::named("e", p(2))));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn priority_is_pattern_order() {
        let m = EventMemory::new();
        m.deliver(EventOccurrence::named("rendezvous", p(1)));
        m.deliver(EventOccurrence::named("create_worker", p(1)));
        // create_worker has higher priority even though rendezvous arrived
        // first — the paper's `priority create_worker > rendezvous`.
        let (pi, occ) = m
            .wait_select(&["create_worker".into(), "rendezvous".into()])
            .unwrap();
        assert_eq!(pi, 0);
        assert_eq!(occ.name().unwrap(), "create_worker");
    }

    #[test]
    fn unawaited_occurrences_stay_put_and_awaited_ones_wake_their_waiter() {
        let m = Arc::new(EventMemory::new());
        let waiters: Vec<_> = ["rendezvous", "finished"]
            .into_iter()
            .map(|name| {
                let m = m.clone();
                std::thread::spawn(move || m.wait_select(&[name.into()]).unwrap().1)
            })
            .collect();
        // Both blocked; what neither awaits is remembered, not lost.
        while m.inner.lock().waiters < 2 {
            std::thread::yield_now();
        }
        m.deliver(EventOccurrence::named("death_worker", p(7)));
        m.deliver(EventOccurrence::terminated(p(7)));
        m.deliver(EventOccurrence::named("finished", p(1)));
        m.deliver(EventOccurrence::named("rendezvous", p(1)));
        for (w, name) in waiters.into_iter().zip(["rendezvous", "finished"]) {
            assert_eq!(w.join().unwrap().name().unwrap(), name);
        }
        assert_eq!(m.len(), 2);
        assert!(m.inner.lock().awaited.is_empty());
        assert!(m.try_select(&["death_worker".into()]).is_some());
    }

    #[test]
    fn fifo_within_one_pattern() {
        let m = EventMemory::new();
        m.deliver(EventOccurrence::named("death_worker", p(5)));
        m.deliver(EventOccurrence::named("death_worker", p(3)));
        let (_, a) = m.try_select(&["death_worker".into()]).unwrap();
        let (_, b) = m.try_select(&["death_worker".into()]).unwrap();
        assert_eq!(a.source, p(5));
        assert_eq!(b.source, p(3));
    }

    #[test]
    fn termination_pattern() {
        let m = EventMemory::new();
        m.deliver(EventOccurrence::terminated(p(9)));
        assert!(m.try_select(&[EventPattern::Terminated(p(8))]).is_none());
        let (_, occ) = m.try_select(&[EventPattern::Terminated(p(9))]).unwrap();
        assert!(occ.is_termination_of(p(9)));
    }

    #[test]
    fn purge_named_removes_all() {
        let m = EventMemory::new();
        m.deliver(EventOccurrence::named("death", p(1)));
        m.deliver(EventOccurrence::named("death", p(2)));
        m.deliver(EventOccurrence::named("other", p(1)));
        m.purge_named(&Name::new("death"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.snapshot()[0].name().unwrap(), "other");
    }

    #[test]
    fn kill_wakes_waiter() {
        let m = Arc::new(EventMemory::new());
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.wait_select(&["never".into()]));
        std::thread::sleep(Duration::from_millis(20));
        m.kill();
        assert_eq!(h.join().unwrap(), Err(MfError::Killed));
    }

    #[test]
    fn cross_thread_delivery() {
        let m = Arc::new(EventMemory::new());
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.wait_select(&["go".into()]).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        m.deliver(EventOccurrence::named("go", p(7)));
        let (pi, occ) = h.join().unwrap();
        assert_eq!(pi, 0);
        assert_eq!(occ.source, p(7));
    }

    #[test]
    fn wait_present_leaves_the_occurrence_for_the_step_that_selects_it() {
        let m = Arc::new(EventMemory::new());
        m.deliver(EventOccurrence::named("other", p(1)));
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.wait_present(&["go".into()]));
        while m.inner.lock().waiters < 1 {
            std::thread::yield_now();
        }
        m.deliver(EventOccurrence::named("go", p(7)));
        assert_eq!(h.join().unwrap(), Ok(()));
        assert_eq!(m.len(), 2, "nothing was consumed");
        // Present already: no wait.
        m.wait_present(&["never".into(), "go".into()]).unwrap();
        assert!(m.try_select(&["go".into()]).is_some());
        m.kill();
        assert_eq!(m.wait_present(&["go".into()]), Err(MfError::Killed));
    }

    #[test]
    fn named_from_filters_source() {
        let m = EventMemory::new();
        m.deliver(EventOccurrence::named("e", p(1)));
        let pat = [EventPattern::NamedFrom(Name::new("e"), p(2))];
        assert!(m.try_select(&pat).is_none());
        let pat = [EventPattern::NamedFrom(Name::new("e"), p(1))];
        assert!(m.try_select(&pat).is_some());
    }

    #[test]
    fn any_pattern_drains() {
        let m = EventMemory::new();
        m.deliver(EventOccurrence::named("a", p(1)));
        m.deliver(EventOccurrence::terminated(p(2)));
        assert!(m.try_select(&[EventPattern::Any]).is_some());
        assert!(m.try_select(&[EventPattern::Any]).is_some());
        assert!(m.try_select(&[EventPattern::Any]).is_none());
    }
}
