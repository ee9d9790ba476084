//! Units: the indivisible data items that flow through streams.
//!
//! MANIFOLD streams carry *units* — opaque data packets. A unit can be a raw
//! byte block, a scalar, a text, a numeric vector (the grid data of the
//! paper's application), a tuple, or — crucially for the master/worker
//! protocol — a *process reference* (`&worker` in MANIFOLD notation), which
//! lets a coordinator hand the identity of one process to another.

use std::sync::Arc;

use bytes::Bytes;

use crate::error::{MfError, MfResult};
use crate::process::ProcessRef;

/// A single datum travelling through a stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Unit {
    /// Raw bytes (uninterpreted payload).
    Bytes(Bytes),
    /// A signed integer.
    Int(i64),
    /// A double-precision real.
    Real(f64),
    /// A text string.
    Text(Arc<str>),
    /// A shared vector of reals. This is the natural carrier for grid data:
    /// cloning it is O(1) so the runtime never deep-copies numerical
    /// payloads, mirroring MANIFOLD's pass-by-reference within a task
    /// instance.
    Reals(Arc<Vec<f64>>),
    /// A reference to a process (`&p`). Receiving one allows activating the
    /// process and naming it in stream connections.
    ProcessRef(ProcessRef),
    /// An ordered group of units, delivered atomically.
    Tuple(Arc<Vec<Unit>>),
}

impl Unit {
    /// Build an integer unit.
    pub fn int(v: i64) -> Self {
        Unit::Int(v)
    }

    /// Build a real unit.
    pub fn real(v: f64) -> Self {
        Unit::Real(v)
    }

    /// Build a text unit.
    pub fn text(v: impl AsRef<str>) -> Self {
        Unit::Text(Arc::from(v.as_ref()))
    }

    /// Build a shared real-vector unit.
    pub fn reals(v: Vec<f64>) -> Self {
        Unit::Reals(Arc::new(v))
    }

    /// Build a real-vector unit from an already shared buffer. The unit
    /// references the same allocation — encoding an application payload
    /// into a stream unit is O(1), no deep copy.
    pub fn reals_shared(v: Arc<Vec<f64>>) -> Self {
        Unit::Reals(v)
    }

    /// Build a tuple unit.
    pub fn tuple(v: Vec<Unit>) -> Self {
        Unit::Tuple(Arc::new(v))
    }

    /// Build a bytes unit.
    pub fn bytes(v: impl Into<Bytes>) -> Self {
        Unit::Bytes(v.into())
    }

    /// Interpret as integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Unit::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as real, if it is one (integers are *not* coerced).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Unit::Real(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Unit::Text(v) => Some(v),
            _ => None,
        }
    }

    /// Interpret as shared real vector.
    pub fn as_reals(&self) -> Option<&Arc<Vec<f64>>> {
        match self {
            Unit::Reals(v) => Some(v),
            _ => None,
        }
    }

    /// Interpret as tuple.
    pub fn as_tuple(&self) -> Option<&[Unit]> {
        match self {
            Unit::Tuple(v) => Some(v),
            _ => None,
        }
    }

    /// Like [`Unit::as_int`] but returning a typed error, for `?`-style
    /// protocol code.
    pub fn expect_int(&self) -> MfResult<i64> {
        self.as_int().ok_or(MfError::UnitType { expected: "Int" })
    }

    /// Like [`Unit::as_real`] but returning a typed error.
    pub fn expect_real(&self) -> MfResult<f64> {
        self.as_real().ok_or(MfError::UnitType { expected: "Real" })
    }

    /// Like [`Unit::as_reals`] but returning a typed error.
    pub fn expect_reals(&self) -> MfResult<Arc<Vec<f64>>> {
        self.as_reals()
            .cloned()
            .ok_or(MfError::UnitType { expected: "Reals" })
    }

    /// Interpret as a process reference, or a typed error.
    pub fn expect_process_ref(&self) -> MfResult<ProcessRef> {
        match self {
            Unit::ProcessRef(r) => Ok(r.clone()),
            _ => Err(MfError::UnitType {
                expected: "ProcessRef",
            }),
        }
    }

    /// Approximate wire size of the unit in bytes, as it would cross the
    /// network between task instances. Used by the cluster simulator to cost
    /// inter-host transfers.
    pub fn wire_size(&self) -> usize {
        match self {
            Unit::Bytes(b) => b.len(),
            Unit::Int(_) => 8,
            Unit::Real(_) => 8,
            Unit::Text(s) => s.len(),
            Unit::Reals(v) => v.len() * 8,
            Unit::ProcessRef(_) => 16,
            Unit::Tuple(v) => v.iter().map(Unit::wire_size).sum::<usize>() + 8,
        }
    }
}

impl From<i64> for Unit {
    fn from(v: i64) -> Self {
        Unit::Int(v)
    }
}

impl From<f64> for Unit {
    fn from(v: f64) -> Self {
        Unit::Real(v)
    }
}

impl From<&str> for Unit {
    fn from(v: &str) -> Self {
        Unit::text(v)
    }
}

impl From<Vec<f64>> for Unit {
    fn from(v: Vec<f64>) -> Self {
        Unit::reals(v)
    }
}

impl From<ProcessRef> for Unit {
    fn from(v: ProcessRef) -> Self {
        Unit::ProcessRef(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_constructors() {
        assert_eq!(Unit::int(3).as_int(), Some(3));
        assert_eq!(Unit::real(2.5).as_real(), Some(2.5));
        assert_eq!(Unit::text("hi").as_text(), Some("hi"));
        assert_eq!(Unit::reals(vec![1.0, 2.0]).as_reals().unwrap().len(), 2);
        let t = Unit::tuple(vec![Unit::int(1), Unit::real(2.0)]);
        assert_eq!(t.as_tuple().unwrap().len(), 2);
    }

    #[test]
    fn no_cross_kind_coercion() {
        assert_eq!(Unit::int(3).as_real(), None);
        assert_eq!(Unit::real(3.0).as_int(), None);
        assert!(Unit::int(3).expect_real().is_err());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Unit::int(1).wire_size(), 8);
        assert_eq!(Unit::reals(vec![0.0; 100]).wire_size(), 800);
        assert_eq!(
            Unit::tuple(vec![Unit::int(1), Unit::int(2)]).wire_size(),
            8 + 8 + 8
        );
        assert_eq!(Unit::text("abc").wire_size(), 3);
        assert_eq!(Unit::bytes(vec![0u8; 5]).wire_size(), 5);
    }

    #[test]
    fn reals_clone_is_shallow() {
        let u = Unit::reals(vec![1.0; 1000]);
        let v = u.clone();
        match (&u, &v) {
            (Unit::Reals(a), Unit::Reals(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }
}
