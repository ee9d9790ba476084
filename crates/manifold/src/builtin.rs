//! Predefined processes from the MANIFOLD built-in library.
//!
//! The paper's coordinator uses two of them:
//!
//! * `variable` — a process holding a single value; the paper's `now` and
//!   `t` counters are instances of it ("MANIFOLD obviously only knows
//!   processes; there are no data structures in MANIFOLD, not even the
//!   simplest kind, a variable"). Here it is a process that costs no
//!   thread until someone wires a stream to it: the coordinator's own
//!   `now = now + 1` reads and writes the value directly.
//! * `void` — a process that never terminates; `terminated(void)` (the
//!   `IDLE` macro) therefore hangs a state until an event preempts it.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::coord::Coord;
use crate::env::Environment;
use crate::error::MfResult;
use crate::process::{ProcessCtx, ProcessRef};
use crate::unit::Unit;

/// A handle to a `variable` process instance: every unit written to the
/// process's `input` port becomes its current value, which the owner may
/// read back at any time (and which the process echoes to its `output` port
/// for downstream consumers).
///
/// The process is created at once — it has an identity, can be watched,
/// and dies with the block that declared it — but its body, whose only
/// job is to serve the ports, is not started until [`Variable::process`]
/// hands the process out to be connected.
#[derive(Clone)]
pub struct Variable {
    process: ProcessRef,
    cell: Arc<Mutex<Unit>>,
    env: Environment,
}

impl Variable {
    /// Create a `variable` process initialized to `initial` (the paper's
    /// `variable(0)`) in the coordinator's current block.
    pub fn spawn(coord: &Coord, name: &str, initial: Unit) -> MfResult<Variable> {
        let cell = Arc::new(Mutex::new(initial));
        let cell2 = cell.clone();
        let process = coord.create_atomic(format!("variable({name})"), move |ctx: ProcessCtx| {
            loop {
                let u = ctx.read("input")?;
                *cell2.lock() = u.clone();
                // Echo for any connected consumer; never block on it.
                let _ = ctx.core().port("output").try_write(u);
            }
        });
        Ok(Variable {
            process,
            cell,
            env: coord.env().clone(),
        })
    }

    /// The underlying process (to connect streams to/from it). The first
    /// call starts its body, so units sent to `input` are consumed.
    pub fn process(&self) -> &ProcessRef {
        // Already running, or already dead with its block: nothing to do.
        let _ = self.env.activate(&self.process);
        &self.process
    }

    /// Current value.
    pub fn get(&self) -> Unit {
        self.cell.lock().clone()
    }

    /// Convenience: current value as integer (0 if not an Int).
    pub fn get_int(&self) -> i64 {
        self.get().as_int().unwrap_or(0)
    }

    /// Set the value directly (coordinator-side assignment `now = now + 1`).
    pub fn set(&self, u: Unit) {
        *self.cell.lock() = u;
    }

    /// Increment an integer variable by `d` and return the new value.
    pub fn add(&self, d: i64) -> i64 {
        let mut cell = self.cell.lock();
        let v = cell.as_int().unwrap_or(0) + d;
        *cell = Unit::int(v);
        v
    }
}

/// Create and activate the predefined `void` process: it blocks forever (on
/// an event that never comes) and only goes away when killed. Waiting for
/// its termination is the `IDLE` idiom.
pub fn void(coord: &Coord) -> MfResult<ProcessRef> {
    let p = coord.create_atomic("void", |ctx: ProcessCtx| {
        // Wait on an empty pattern list: matches nothing, returns only on
        // kill.
        ctx.wait_event(&[])?;
        Ok(())
    });
    coord.activate(&p)?;
    Ok(p)
}

/// Create and activate a printer process: every unit read from `input` is
/// emitted as a §6-format trace message (prefixed with `label`).
pub fn printer(coord: &Coord, label: &str) -> MfResult<ProcessRef> {
    let label = label.to_string();
    let p = coord.create_atomic("printer", move |ctx: ProcessCtx| loop {
        let u = ctx.read("input")?;
        crate::mes!(ctx, "{label}: {u:?}");
    });
    coord.activate(&p)?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use crate::process::LifeState;
    use crate::stream::StreamType;
    use std::time::Duration;

    #[test]
    fn variable_counts_like_now_and_t() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let now = Variable::spawn(coord, "now", Unit::int(0))?;
            let t = Variable::spawn(coord, "t", Unit::int(0))?;
            assert_eq!(now.add(1), 1);
            assert_eq!(now.add(1), 2);
            assert_eq!(t.add(1), 1);
            assert!(t.get_int() < now.get_int());
            Ok(())
        })
        .unwrap();
        // Counting never touched a port, so no body ever ran.
        assert_eq!(env.threads_spawned(), 0);
        env.shutdown();
    }

    #[test]
    fn variable_dies_with_its_block_whether_or_not_it_ever_ran() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let (passive, wired) = coord.scope(|coord| {
                let passive = Variable::spawn(coord, "passive", Unit::int(0))?;
                let wired = Variable::spawn(coord, "wired", Unit::int(0))?;
                assert_eq!(wired.process().life_state(), LifeState::Active);
                assert_eq!(passive.process.life_state(), LifeState::Created);
                Ok((passive, wired))
            })?;
            assert_eq!(passive.process.life_state(), LifeState::Terminated);
            assert_eq!(wired.process.life_state(), LifeState::Terminated);
            // Handing out a dead variable's process does not revive it.
            assert_eq!(passive.process().life_state(), LifeState::Terminated);
            assert_eq!(coord.env().live_processes(), 1, "only the coordinator");
            Ok(())
        })
        .unwrap();
        assert_eq!(env.threads_spawned(), 1, "only the wired variable ran");
        env.shutdown();
    }

    #[test]
    fn variable_accepts_units_from_streams() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let v = Variable::spawn(coord, "v", Unit::int(0))?;
            let mut st = coord.state();
            st.send(Unit::real(3.5), v.process(), "input")?;
            drop(st);
            // Delivery is asynchronous.
            for _ in 0..100 {
                if v.get().as_real() == Some(3.5) {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("variable never updated");
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn void_and_printer_live_exactly_as_long_as_their_block() {
        let env = Environment::new();
        let (v, p) = env
            .run_coordinator("Main", |coord| {
                let v = void(coord)?;
                let p = coord.scope(|coord| {
                    let p = printer(coord, "seen")?;
                    assert_eq!(p.life_state(), LifeState::Active);
                    Ok(p)
                })?;
                // The inner block took its printer with it; `void`, declared
                // in the coordinator's own block, never terminates by itself.
                assert_eq!(p.life_state(), LifeState::Terminated);
                std::thread::sleep(Duration::from_millis(30));
                assert_eq!(v.life_state(), LifeState::Active);
                Ok((v, p))
            })
            .unwrap();
        // No shutdown needed: the coordinator's exit ended `void`.
        assert_eq!(v.life_state(), LifeState::Terminated);
        assert!(env.process(v.id()).is_none() && env.process(p.id()).is_none());
        assert_eq!(env.live_processes(), 0);
        env.shutdown();
    }

    #[test]
    fn printer_traces_units() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let p = printer(coord, "seen")?;
            let mut st = coord.state();
            st.send(Unit::int(9), &p, "input")?;
            drop(st);
            for _ in 0..100 {
                if !env.trace().is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        })
        .unwrap();
        let recs = env.trace().snapshot();
        assert!(recs.iter().any(|r| r.message.contains("seen")));
        env.shutdown();
    }

    #[test]
    fn variable_echoes_downstream() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let v = Variable::spawn(coord, "v", Unit::int(0))?;
            let mut st = coord.state();
            // Connect echo BEFORE feeding so try_write finds the stream.
            st.connect_to_self(v.process(), "output", "input", StreamType::BK)?;
            st.send(Unit::int(5), v.process(), "input")?;
            let echoed = coord.read_timeout("input", Duration::from_secs(5))?;
            assert_eq!(echoed.as_int(), Some(5));
            drop(st);
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }
}
