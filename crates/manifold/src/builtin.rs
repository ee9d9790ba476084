//! Predefined processes from the MANIFOLD built-in library.
//!
//! The paper's coordinator uses two of them:
//!
//! * `variable` — a process holding a single value; the paper's `now` and
//!   `t` counters are instances of it ("MANIFOLD obviously only knows
//!   processes; there are no data structures in MANIFOLD, not even the
//!   simplest kind, a variable"). The coordinator's own `now = now + 1`
//!   reads and writes the value directly.
//! * `void` — a process that never terminates; `terminated(void)` (the
//!   `IDLE` macro) therefore hangs a state until an event preempts it.
//!
//! All of them only ever react to what arrives at their ports, so they are
//! stepped processes: active from the moment they are declared, and none
//! of them ever occupies a thread.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::coord::Coord;
use crate::error::MfResult;
use crate::process::{ProcessCtx, ProcessRef, Step};
use crate::unit::Unit;

/// A handle to a `variable` process instance: every unit written to the
/// process's `input` port becomes its current value, which the owner may
/// read back at any time (and which the process echoes to its `output` port
/// for downstream consumers).
#[derive(Clone)]
pub struct Variable {
    process: ProcessRef,
    cell: Arc<Mutex<Unit>>,
}

impl Variable {
    /// Create and activate a `variable` process initialized to `initial`
    /// (the paper's `variable(0)`) in the coordinator's current block.
    pub fn spawn(coord: &Coord, name: &str, initial: Unit) -> MfResult<Variable> {
        let cell = Arc::new(Mutex::new(initial));
        let cell2 = cell.clone();
        let process = coord.create_stepped(format!("variable({name})"), move |ctx: &ProcessCtx| {
            while let Some(u) = ctx.try_read("input") {
                *cell2.lock() = u.clone();
                // Echo for any connected consumer; never wait for one.
                ctx.try_write("output", u)?;
            }
            Ok(Step::Pending)
        });
        coord.activate(&process)?;
        Ok(Variable { process, cell })
    }

    /// The underlying process (to connect streams to/from it).
    pub fn process(&self) -> &ProcessRef {
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

/// Create and activate the predefined `void` process: it never finishes and
/// only goes away when killed. Waiting for its termination is the `IDLE`
/// idiom.
pub fn void(coord: &Coord) -> MfResult<ProcessRef> {
    let p = coord.create_stepped("void", |_ctx: &ProcessCtx| Ok(Step::Pending));
    coord.activate(&p)?;
    Ok(p)
}

/// Create and activate a printer process: every unit read from `input` is
/// emitted as a §6-format trace message (prefixed with `label`).
pub fn printer(coord: &Coord, label: &str) -> MfResult<ProcessRef> {
    let label = label.to_string();
    let p = coord.create_stepped("printer", move |ctx: &ProcessCtx| {
        while let Some(u) = ctx.try_read("input") {
            crate::mes!(ctx, "{label}: {u:?}");
        }
        Ok(Step::Pending)
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
        assert_eq!(env.threads_spawned(), 0);
        env.shutdown();
    }

    #[test]
    fn variable_is_active_from_its_declaration_and_dies_with_its_block() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let v = coord.scope(|coord| {
                let v = Variable::spawn(coord, "v", Unit::int(0))?;
                assert_eq!(v.process().life_state(), LifeState::Active);
                Ok(v)
            })?;
            assert_eq!(v.process().life_state(), LifeState::Terminated);
            assert_eq!(coord.env().live_processes(), 1, "only the coordinator");
            Ok(())
        })
        .unwrap();
        assert_eq!(env.threads_spawned(), 0);
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
            // The unit's arrival stepped the variable on this thread.
            assert_eq!(v.get().as_real(), Some(3.5));
            Ok(())
        })
        .unwrap();
        assert_eq!(env.threads_spawned(), 0);
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
        assert_eq!(env.threads_spawned(), 0);
        env.shutdown();
    }

    #[test]
    fn printer_traces_units() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let p = printer(coord, "seen")?;
            let mut st = coord.state();
            st.send(Unit::int(9), &p, "input")?;
            st.send(Unit::int(10), &p, "input")?;
            drop(st);
            Ok(())
        })
        .unwrap();
        let seen: Vec<String> = env
            .trace()
            .snapshot()
            .into_iter()
            .map(|r| r.message)
            .collect();
        assert_eq!(seen, ["seen: Int(9)", "seen: Int(10)"], "one line per unit");
        assert_eq!(env.threads_spawned(), 0);
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
        assert_eq!(env.threads_spawned(), 0);
        env.shutdown();
    }
}
