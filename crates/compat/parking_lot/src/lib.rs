//! Offline stand-in for the `parking_lot` crate, backed by `std::sync`.
//!
//! The build environment vendors no external sources, so this workspace
//! ships a minimal API-compatible subset of `parking_lot`: `Mutex`,
//! `MutexGuard`, `RwLock`, `Condvar` and `WaitTimeoutResult`. Semantics
//! match `parking_lot`'s: locks do not poison — a panicked holder simply
//! releases the lock for the next acquirer.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A mutex that, like `parking_lot::Mutex`, never poisons.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock that never poisons.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a lock holding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { inner }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { inner }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the deadline passed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable compatible with [`Mutex`].
///
/// Unlike `std`, `parking_lot`'s `wait` takes the guard by `&mut` — we
/// reproduce that calling convention here because all in-tree callers
/// rely on it.
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside `wait`/`wait_until`. `std`'s condvar makes a futex
    /// system call for every notify; parking_lot's returns at once when
    /// nobody is parked, and in-tree callers notify far more often than
    /// anyone waits. Counted up under the caller's mutex before it is
    /// released, so a notifier that changed the predicate under that
    /// mutex cannot miss a waiter it should wake.
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified, releasing the guard while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        replace_guard(&mut guard.inner, |g| match self.inner.wait(g) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut timed_out = false;
        replace_guard(&mut guard.inner, |g| {
            let now = Instant::now();
            let dur = deadline.saturating_duration_since(now);
            if dur.is_zero() {
                timed_out = true;
                return g;
            }
            match self.inner.wait_timeout(g, dur) {
                Ok((g, r)) => {
                    timed_out = r.timed_out();
                    g
                }
                Err(p) => {
                    let (g, r) = p.into_inner();
                    timed_out = r.timed_out();
                    g
                }
            }
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        WaitTimeoutResult { timed_out }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Run `f` on the owned guard behind `slot`, putting the result back.
///
/// `std`'s condvar consumes the guard while parking_lot's borrows it, so
/// we temporarily move the guard out of the borrow. The closure always
/// returns a live guard (poison is unwrapped), so `slot` is always
/// restored; if `f` unwinds, the process is already tearing the lock down.
fn replace_guard<'a, T: ?Sized>(
    slot: &mut std::sync::MutexGuard<'a, T>,
    f: impl FnOnce(std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T>,
) {
    unsafe {
        let guard = std::ptr::read(slot);
        std::ptr::write(slot, f(guard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut done = lock.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(r.timed_out());
    }
}
