//! Encoding solver payloads as MANIFOLD units.
//!
//! Workers are black boxes reading units from their input port; the master
//! writes units to its output port. These helpers define the wire shape of
//! a subsolve job and its result. Numeric bulk data travels as
//! [`Unit::Reals`], which is reference-counted, and the application types
//! carry `Arc`-shared buffers too — so encode, port transfer, and decode
//! all hand around one allocation, mirroring MANIFOLD's intra-task
//! pass-by-reference end to end.

use manifold::prelude::*;
use solver::problem::{Problem, ProblemKind};
use solver::subsolve::{SubsolveRequest, SubsolveResult};
use solver::WorkCounter;

pub(crate) fn problem_to_unit(p: &Problem) -> Unit {
    let (tag, x0, y0, s0) = match p.kind {
        ProblemKind::Gaussian { x0, y0, s0 } => (0i64, x0, y0, s0),
        ProblemKind::Manufactured => (1i64, 0.0, 0.0, 0.0),
    };
    Unit::tuple(vec![
        Unit::real(p.ax),
        Unit::real(p.ay),
        Unit::real(p.eps),
        Unit::real(p.t0),
        Unit::real(p.t_end),
        Unit::int(tag),
        Unit::real(x0),
        Unit::real(y0),
        Unit::real(s0),
    ])
}

pub(crate) fn problem_from_unit(u: &Unit) -> MfResult<Problem> {
    let t = u
        .as_tuple()
        .ok_or(MfError::UnitType { expected: "Tuple" })?;
    if t.len() != 9 {
        return Err(MfError::App(format!("problem tuple arity {}", t.len())));
    }
    let kind = match t[5].expect_int()? {
        0 => ProblemKind::Gaussian {
            x0: t[6].expect_real()?,
            y0: t[7].expect_real()?,
            s0: t[8].expect_real()?,
        },
        1 => ProblemKind::Manufactured,
        k => return Err(MfError::App(format!("unknown problem kind {k}"))),
    };
    Ok(Problem {
        ax: t[0].expect_real()?,
        ay: t[1].expect_real()?,
        eps: t[2].expect_real()?,
        t0: t[3].expect_real()?,
        t_end: t[4].expect_real()?,
        kind,
    })
}

/// Encode a subsolve request for the master → worker stream.
pub fn request_to_unit(req: &SubsolveRequest) -> Unit {
    let initial = match &req.initial_interior {
        // Share the buffer with the request — encoding copies nothing.
        Some(v) => Unit::reals_shared(v.clone()),
        None => Unit::int(-1), // sentinel: sample the initial condition
    };
    Unit::tuple(vec![
        Unit::int(req.root as i64),
        Unit::int(req.l as i64),
        Unit::int(req.m as i64),
        Unit::real(req.t0),
        Unit::real(req.t1),
        Unit::real(req.tol),
        problem_to_unit(&req.problem),
        initial,
    ])
}

/// Decode an integer field into `T`, rejecting values `T` cannot hold: a
/// negative index or count must not wrap into a different one.
fn int_field<T: TryFrom<i64>>(u: &Unit, what: &str) -> MfResult<T> {
    let v = u.expect_int()?;
    T::try_from(v).map_err(|_| MfError::App(format!("{what} out of range: {v}")))
}

/// Interior node count of grid `(l, m)` over `root`, or `None` when
/// `Grid2::new`'s shifts or its node count would overflow.
fn interior_count(root: u32, l: u32, m: u32) -> Option<usize> {
    let cells = |r: u32| 1usize.checked_shl(root.checked_add(r)?);
    let (nx, ny) = (cells(l)?, cells(m)?);
    (nx + 1).checked_mul(ny + 1)?;
    Some((nx - 1) * (ny - 1))
}

/// Decode a subsolve request on the worker side. Everything `subsolve`
/// would otherwise trip over — a grid whose size overflows, initial data
/// of the wrong length — is a decode error here, not a worker panic.
pub fn request_from_unit(u: &Unit) -> MfResult<SubsolveRequest> {
    let t = u
        .as_tuple()
        .ok_or(MfError::UnitType { expected: "Tuple" })?;
    if t.len() != 8 {
        return Err(MfError::App(format!("request tuple arity {}", t.len())));
    }
    let root = int_field(&t[0], "root")?;
    let l = int_field(&t[1], "l")?;
    let m = int_field(&t[2], "m")?;
    let interior = interior_count(root, l, m)
        .ok_or_else(|| MfError::App(format!("grid ({l}, {m}) over root {root} overflows")))?;
    let initial_interior = match &t[7] {
        Unit::Int(-1) => None,
        Unit::Reals(v) if v.len() == interior => Some(v.clone()),
        Unit::Reals(v) => {
            return Err(MfError::App(format!(
                "initial data has {} values, grid ({l}, {m}) has {interior} interior nodes",
                v.len()
            )))
        }
        other => return Err(MfError::App(format!("bad initial data field: {other:?}"))),
    };
    Ok(SubsolveRequest {
        root,
        l,
        m,
        t0: t[3].expect_real()?,
        t1: t[4].expect_real()?,
        tol: t[5].expect_real()?,
        problem: problem_from_unit(&t[6])?,
        initial_interior,
    })
}

/// Encode a subsolve result for the worker → master.dataport stream.
pub fn result_to_unit(res: &SubsolveResult) -> Unit {
    Unit::tuple(vec![
        Unit::int(res.l as i64),
        Unit::int(res.m as i64),
        Unit::reals_shared(res.values.clone()),
        Unit::int(res.steps as i64),
        Unit::int(res.rejected as i64),
        Unit::tuple(vec![
            Unit::int(res.work.flops as i64),
            Unit::int(res.work.steps as i64),
            Unit::int(res.work.rejected as i64),
            Unit::int(res.work.lin_iters as i64),
            Unit::int(res.work.factorizations as i64),
            Unit::int(res.work.refactorizations as i64),
            Unit::int(res.work.assemblies as i64),
        ]),
    ])
}

/// Decode a subsolve result on the master side. The work tuple has 7
/// fields; an 8th (the retired `batched_rhs` count older workers and
/// checkpoints wrote) is accepted and ignored.
pub fn result_from_unit(u: &Unit) -> MfResult<SubsolveResult> {
    let t = u
        .as_tuple()
        .ok_or(MfError::UnitType { expected: "Tuple" })?;
    if t.len() != 6 {
        return Err(MfError::App(format!("result tuple arity {}", t.len())));
    }
    let w = t[5]
        .as_tuple()
        .ok_or(MfError::UnitType { expected: "Tuple" })?;
    if w.len() != 7 && w.len() != 8 {
        return Err(MfError::App("bad work tuple".into()));
    }
    Ok(SubsolveResult {
        l: int_field(&t[0], "l")?,
        m: int_field(&t[1], "m")?,
        values: t[2].expect_reals()?,
        steps: int_field(&t[3], "steps")?,
        rejected: int_field(&t[4], "rejected")?,
        work: WorkCounter {
            flops: int_field(&w[0], "flops")?,
            steps: int_field(&w[1], "steps")?,
            rejected: int_field(&w[2], "rejected")?,
            lin_iters: int_field(&w[3], "lin_iters")?,
            factorizations: int_field(&w[4], "factorizations")?,
            refactorizations: int_field(&w[5], "refactorizations")?,
            assemblies: int_field(&w[6], "assemblies")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use solver::subsolve::subsolve;

    #[test]
    fn request_round_trip_without_data() {
        let p = Problem::transport_benchmark();
        let req = SubsolveRequest::for_grid(2, 3, 1, 1e-3, p);
        let back = request_from_unit(&request_to_unit(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_round_trip_with_data() {
        let p = Problem::manufactured_benchmark();
        let mut req = SubsolveRequest::for_grid(2, 1, 1, 1e-4, p);
        // Grid (1, 1) over root 2 is 8 × 8 cells: 7 × 7 interior nodes.
        req.initial_interior = Some(std::sync::Arc::new(
            (0..49).map(|i| i as f64 * 0.5 - 3.0).collect(),
        ));
        let back = request_from_unit(&request_to_unit(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn result_round_trip_is_exact() {
        let p = Problem::manufactured_benchmark();
        let req = SubsolveRequest::for_grid(2, 1, 0, 1e-3, p);
        let res = subsolve(&req).unwrap();
        let back = result_from_unit(&result_to_unit(&res)).unwrap();
        assert_eq!(back, res);
    }

    #[test]
    fn manufactured_problem_round_trips() {
        let p = Problem::manufactured_benchmark();
        let u = problem_to_unit(&p);
        assert_eq!(problem_from_unit(&u).unwrap(), p);
    }

    /// `u` (a tuple) with field `i` replaced by `v`.
    fn with_field(u: &Unit, i: usize, v: Unit) -> Unit {
        let mut t = u.as_tuple().unwrap().to_vec();
        t[i] = v;
        Unit::tuple(t)
    }

    /// Rejected with a diagnosis, not a panic or a type error.
    fn app_err<T>(r: MfResult<T>) -> bool {
        matches!(r, Err(MfError::App(_)))
    }

    #[test]
    fn bad_payload_is_rejected() {
        assert!(request_from_unit(&Unit::int(3)).is_err());
        assert!(result_from_unit(&Unit::tuple(vec![Unit::int(1)])).is_err());
        assert!(problem_from_unit(&Unit::tuple(vec![Unit::int(1); 9])).is_err());

        // Integer fields that cannot describe a grid are rejected, not
        // wrapped: negative, wider than u32, shifts past the word size, a
        // node count that overflows, and initial data of the wrong length.
        let p = Problem::manufactured_benchmark();
        let req = request_to_unit(&SubsolveRequest::for_grid(2, 1, 1, 1e-3, p));
        for (i, v) in [
            (0, -1),
            (1, -1),
            (2, i64::from(u32::MAX) + 1),
            (0, i64::from(u32::MAX)),
            (0, 70),
            (1, 62),
        ] {
            let bad = with_field(&req, i, Unit::int(v));
            assert!(app_err(request_from_unit(&bad)), "field {i} = {v}");
        }
        let both = with_field(&with_field(&req, 1, Unit::int(40)), 2, Unit::int(40));
        assert!(app_err(request_from_unit(&both)));
        for n in [0, 48, 50] {
            let bad = with_field(&req, 7, Unit::reals(vec![0.0; n]));
            assert!(app_err(request_from_unit(&bad)), "{n} values");
        }

        let res = result_to_unit(&subsolve(&SubsolveRequest::for_grid(2, 1, 0, 1e-3, p)).unwrap());
        for i in [0, 1, 3, 4] {
            let bad = with_field(&res, i, Unit::int(-1));
            assert!(app_err(result_from_unit(&bad)), "field {i}");
        }
        let work = res.as_tuple().unwrap()[5].clone();
        for i in 0..7 {
            let bad = with_field(&res, 5, with_field(&work, i, Unit::int(-1)));
            assert!(app_err(result_from_unit(&bad)), "work {i}");
        }
    }

    #[test]
    fn bulk_data_is_shared_not_copied() {
        let p = Problem::transport_benchmark();
        let req = SubsolveRequest::for_grid(2, 2, 2, 1e-3, p);
        let res = subsolve(&req).unwrap();
        let unit = result_to_unit(&res);
        let clone = unit.clone();
        match (&unit, &clone) {
            (Unit::Tuple(a), Unit::Tuple(b)) => {
                assert!(std::sync::Arc::ptr_eq(a, b));
            }
            _ => unreachable!(),
        }
        // Stronger: the whole encode → decode round trip hands back the
        // *same* allocation, so a result's node field crosses the port
        // without a single deep copy.
        let back = result_from_unit(&unit).unwrap();
        assert!(std::sync::Arc::ptr_eq(&back.values, &res.values));
    }

    #[test]
    fn parent_eight_field_work_tuple_still_decodes() {
        // The current encoder writes a 7-field work tuple, which
        // round-trips exactly.
        let p = Problem::manufactured_benchmark();
        let res = subsolve(&SubsolveRequest::for_grid(2, 1, 0, 1e-3, p)).unwrap();
        let u = result_to_unit(&res);
        let work = u.as_tuple().unwrap()[5].clone();
        assert_eq!(work.as_tuple().unwrap().len(), 7);
        assert_eq!(result_from_unit(&u).unwrap(), res);
        // Results (and checkpoints) written by the parent carry an 8th
        // field, the retired batched-RHS count: it is ignored and
        // everything else decodes intact.
        let mut eight = work.as_tuple().unwrap().to_vec();
        eight.push(Unit::int(3));
        let parent = with_field(&u, 5, Unit::tuple(eight));
        assert_eq!(result_from_unit(&parent).unwrap(), res);
    }

    #[test]
    fn request_initial_data_is_shared_not_copied() {
        let p = Problem::manufactured_benchmark();
        let mut req = SubsolveRequest::for_grid(2, 1, 1, 1e-4, p);
        req.initial_interior = Some(std::sync::Arc::new(vec![0.5; 49]));
        let back = request_from_unit(&request_to_unit(&req)).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            back.initial_interior.as_ref().unwrap(),
            req.initial_interior.as_ref().unwrap()
        ));
    }
}
