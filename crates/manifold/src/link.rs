//! The MLINK stage: bundling process instances into task instances.
//!
//! A MANIFOLD application consists of many light-weight processes (threads)
//! bundled into heavy-weight operating-system processes called **task
//! instances**. The bundling is *not* decided in the program text; it is a
//! separate application-construction stage driven by an MLINK input file:
//!
//! ```text
//! {task *
//!     {perpetual}
//!     {load 1}
//!     {weight Master 1}
//!     {weight Worker 1}
//! }
//! {task mainprog
//!     {include mainprog.o}
//!     {include protocolMW.o}
//! }
//! ```
//!
//! * `{weight M w}` — each instance of manifold `M` contributes `w` to the
//!   load of the task instance housing it (weight 0, the default, means the
//!   process does not count — coordinators typically have weight 0).
//! * `{load n}` — a task instance is *full* when its load exceeds `n`; a new
//!   process is only placed in an instance when it still fits.
//! * `{perpetual}` — an instance whose load drops back to zero stays alive
//!   and can welcome new processes later (instead of dying, the default).
//!   This is what lets the paper's level-15 run reuse machines: workers die
//!   before new ones are forked, so fewer machines than workers are needed.
//!
//! The [`Bundler`] applies these rules at runtime. It is a *pure* state
//! machine with no threads or clocks so it can be shared verbatim between
//! the live runtime ([`crate::env::Environment`]) and the `cluster` crate's
//! discrete-event simulator — both therefore exhibit exactly the same task
//! fork/expiry behaviour.

use std::collections::HashMap;

use crate::config::{ConfigSpec, HostName};
use crate::error::{MfError, MfResult};
use crate::ident::{Name, TaskInstanceId};

/// Specification of one named task (one executable in real MANIFOLD).
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Task name (e.g. `mainprog`).
    pub name: Name,
    /// Manifold names whose instances this task can house. Empty means all.
    pub includes: Vec<Name>,
}

/// Parsed MLINK specification.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// A full task instance has load strictly greater than this.
    pub load_limit: u32,
    /// Keep empty task instances alive for reuse.
    pub perpetual: bool,
    /// Per-manifold weights (`{weight M w}`); unlisted manifolds weigh 0.
    pub weights: HashMap<Name, u32>,
    /// Declared tasks, in order. The first is the main task (the executable
    /// started on the start-up machine).
    pub tasks: Vec<TaskSpec>,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            load_limit: 1,
            perpetual: false,
            weights: HashMap::new(),
            tasks: vec![TaskSpec {
                name: Name::new("main"),
                includes: Vec::new(),
            }],
        }
    }
}

impl LinkSpec {
    /// Builder: set the load limit (`{load n}`).
    pub fn load(mut self, n: u32) -> Self {
        self.load_limit = n;
        self
    }

    /// Builder: make task instances perpetual (`{perpetual}`).
    pub fn perpetual(mut self, on: bool) -> Self {
        self.perpetual = on;
        self
    }

    /// Builder: assign a weight to a manifold (`{weight M w}`).
    pub fn weight(mut self, manifold: impl Into<Name>, w: u32) -> Self {
        self.weights.insert(manifold.into(), w);
        self
    }

    /// Builder: declare a task.
    pub fn task(mut self, name: impl Into<Name>) -> Self {
        let name = name.into();
        // Replace the implicit default "main" task on first explicit decl.
        if self.tasks.len() == 1
            && self.tasks[0].name == "main"
            && self.tasks[0].includes.is_empty()
        {
            self.tasks.clear();
        }
        self.tasks.push(TaskSpec {
            name,
            includes: Vec::new(),
        });
        self
    }

    /// Weight of a manifold's instances (0 when unlisted). The lookup
    /// matches the *base* name: an MLINK `{weight Worker 1}` applies to
    /// instances of `Worker(event)` — the signature decoration is not part
    /// of the manifold's link-stage identity.
    pub fn weight_of(&self, manifold: &Name) -> u32 {
        if let Some(w) = self.weights.get(manifold) {
            return *w;
        }
        let base = manifold
            .as_str()
            .split('(')
            .next()
            .unwrap_or(manifold.as_str())
            .trim();
        self.weights.get(&Name::new(base)).copied().unwrap_or(0)
    }

    /// Name of the main task (first declared).
    pub fn main_task(&self) -> Name {
        self.tasks
            .first()
            .map(|t| t.name.clone())
            .unwrap_or_else(|| Name::new("main"))
    }

    /// Which task houses instances of `manifold`.
    pub fn task_for(&self, manifold: &Name) -> Name {
        for t in &self.tasks {
            if t.includes.is_empty() || t.includes.contains(manifold) {
                return t.name.clone();
            }
        }
        self.main_task()
    }

    /// Parse the `{task …}` syntax (see module docs and §6 of the paper).
    pub fn parse(text: &str) -> MfResult<Self> {
        let mut spec = LinkSpec {
            tasks: Vec::new(),
            ..LinkSpec::default()
        };
        for sx in parse_sexprs(text)? {
            let Sexp::Group(items) = sx else {
                return Err(MfError::Spec("top level must be {task …} groups".into()));
            };
            let mut it = items.into_iter();
            match it.next() {
                Some(Sexp::Atom(kw)) if kw == "task" => {}
                _ => return Err(MfError::Spec("expected {task …}".into())),
            }
            let name = match it.next() {
                Some(Sexp::Atom(n)) => n,
                _ => return Err(MfError::Spec("task: missing name".into())),
            };
            let mut includes = Vec::new();
            for item in it {
                let Sexp::Group(body) = item else {
                    return Err(MfError::Spec("task body must be {…} groups".into()));
                };
                let mut b = body.into_iter();
                let head = match b.next() {
                    Some(Sexp::Atom(a)) => a,
                    _ => return Err(MfError::Spec("empty task directive".into())),
                };
                match head.as_str() {
                    "perpetual" => spec.perpetual = true,
                    "load" => {
                        let n = atom(b.next())?;
                        spec.load_limit = n
                            .parse()
                            .map_err(|_| MfError::Spec(format!("load: bad number {n}")))?;
                    }
                    "weight" => {
                        let m = atom(b.next())?;
                        let w = atom(b.next())?;
                        let w: u32 = w
                            .parse()
                            .map_err(|_| MfError::Spec(format!("weight: bad number {w}")))?;
                        spec.weights.insert(Name::new(m), w);
                    }
                    "include" => {
                        // `{include mainprog.o}` — strip the object suffix to
                        // recover a manifold/source name; kept for fidelity.
                        let obj = atom(b.next())?;
                        includes.push(Name::new(obj.trim_end_matches(".o")));
                    }
                    other => return Err(MfError::Spec(format!("unknown task directive: {other}"))),
                }
            }
            if name != "*" {
                // `include` lines name object files; they are kept for
                // fidelity but placement falls back to the main task for
                // manifolds not literally listed (see `task_for`).
                spec.tasks.push(TaskSpec {
                    name: Name::new(name),
                    includes,
                });
            }
        }
        if spec.tasks.is_empty() {
            spec.tasks.push(TaskSpec {
                name: Name::new("main"),
                includes: Vec::new(),
            });
        }
        Ok(spec)
    }
}

fn atom(s: Option<Sexp>) -> MfResult<String> {
    match s {
        Some(Sexp::Atom(a)) => Ok(a),
        _ => Err(MfError::Spec("expected atom".into())),
    }
}

/// A parsed `{…}` expression: an atom or a group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sexp {
    /// A bare token.
    Atom(String),
    /// A brace-delimited group.
    Group(Vec<Sexp>),
}

/// Parse a sequence of top-level `{…}` expressions. `#`-comments run to end
/// of line.
pub fn parse_sexprs(text: &str) -> MfResult<Vec<Sexp>> {
    let mut out = Vec::new();
    let mut stack: Vec<Vec<Sexp>> = Vec::new();
    let mut token = String::new();
    let flush = |token: &mut String, stack: &mut Vec<Vec<Sexp>>, out: &mut Vec<Sexp>| {
        if !token.is_empty() {
            let atom = Sexp::Atom(std::mem::take(token));
            match stack.last_mut() {
                Some(top) => top.push(atom),
                None => out.push(atom),
            }
        }
    };
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '#' => {
                flush(&mut token, &mut stack, &mut out);
                for c2 in chars.by_ref() {
                    if c2 == '\n' {
                        break;
                    }
                }
            }
            '{' => {
                flush(&mut token, &mut stack, &mut out);
                stack.push(Vec::new());
            }
            '}' => {
                flush(&mut token, &mut stack, &mut out);
                let group = stack
                    .pop()
                    .ok_or_else(|| MfError::Spec("unbalanced '}'".into()))?;
                let sx = Sexp::Group(group);
                match stack.last_mut() {
                    Some(top) => top.push(sx),
                    None => out.push(sx),
                }
            }
            c if c.is_whitespace() => flush(&mut token, &mut stack, &mut out),
            c => token.push(c),
        }
    }
    flush(&mut token, &mut stack, &mut out);
    if !stack.is_empty() {
        return Err(MfError::Spec("unbalanced '{'".into()));
    }
    Ok(out)
}

/// Flat-group lexer used by the CONFIG parser: every top-level expression
/// must be a group of atoms.
pub fn lex_groups(text: &str) -> MfResult<Vec<Vec<String>>> {
    parse_sexprs(text)?
        .into_iter()
        .map(|sx| match sx {
            Sexp::Group(items) => items
                .into_iter()
                .map(|i| match i {
                    Sexp::Atom(a) => Ok(a),
                    Sexp::Group(_) => Err(MfError::Spec("nested group not allowed".into())),
                })
                .collect(),
            Sexp::Atom(a) => Err(MfError::Spec(format!("stray atom: {a}"))),
        })
        .collect()
}

/// Where a process instance was placed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The housing task instance.
    pub task: TaskInstanceId,
    /// The task's name (e.g. `mainprog`).
    pub task_name: Name,
    /// The machine the task instance runs on.
    pub host: HostName,
    /// The load this process contributes.
    pub weight: u32,
    /// True when placing this process forked a brand-new task instance.
    pub forked: bool,
}

#[derive(Clone, Debug)]
struct InstanceState {
    id: TaskInstanceId,
    task: Name,
    host: HostName,
    load: u32,
    perpetual: bool,
}

/// Notification that a task instance died (its last process left and it was
/// not perpetual).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskDeath {
    /// The expired instance.
    pub task: TaskInstanceId,
    /// The machine it vacated.
    pub host: HostName,
}

/// Runtime bundling state machine applying the MLINK + CONFIG rules.
///
/// Thread-free and clock-free by design: the live [`Environment`] wraps one
/// in a mutex, while the cluster discrete-event simulator drives another in
/// virtual time. Both observe identical fork/reuse/expiry behaviour.
///
/// [`Environment`]: crate::env::Environment
#[derive(Clone, Debug)]
pub struct Bundler {
    link: LinkSpec,
    config: ConfigSpec,
    instances: Vec<InstanceState>,
    next_id: u64,
}

impl Bundler {
    /// Create a bundler. The start-up task instance (housing the root
    /// coordinator) is created immediately on the start-up machine and is
    /// always perpetual.
    pub fn new(link: LinkSpec, config: ConfigSpec) -> Self {
        let main = link.main_task();
        let startup = InstanceState {
            id: TaskInstanceId(0),
            task: main,
            host: config.startup_host().clone(),
            load: 0,
            perpetual: true,
        };
        Bundler {
            link,
            config,
            instances: vec![startup],
            next_id: 1,
        }
    }

    /// The MLINK spec in force.
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    /// The CONFIG spec in force.
    pub fn config(&self) -> &ConfigSpec {
        &self.config
    }

    /// Place an instance of `manifold`, forking a task instance if no alive
    /// one has capacity.
    pub fn place(&mut self, manifold: &Name) -> Placement {
        let w = self.link.weight_of(manifold);
        if w == 0 {
            // Weightless processes (coordinators) ride in the start-up task.
            let s = &self.instances[0];
            return Placement {
                task: s.id,
                task_name: s.task.clone(),
                host: s.host.clone(),
                weight: 0,
                forked: false,
            };
        }
        let task_name = self.link.task_for(manifold);
        let limit = self.link.load_limit;
        // First fit among alive instances of this task with capacity.
        if let Some(inst) = self
            .instances
            .iter_mut()
            .find(|i| i.task == task_name && i.load + w <= limit)
        {
            inst.load += w;
            return Placement {
                task: inst.id,
                task_name: inst.task.clone(),
                host: inst.host.clone(),
                weight: w,
                forked: false,
            };
        }
        // Fork a new instance on the least-loaded candidate host.
        let candidates = self.config.hosts_for(&task_name);
        let host = candidates
            .iter()
            .min_by_key(|h| self.instances.iter().filter(|i| &i.host == *h).count())
            .cloned()
            .unwrap_or_else(|| self.config.startup_host().clone());
        let id = TaskInstanceId(self.next_id);
        self.next_id += 1;
        self.instances.push(InstanceState {
            id,
            task: task_name.clone(),
            host: host.clone(),
            load: w,
            perpetual: self.link.perpetual,
        });
        Placement {
            task: id,
            task_name,
            host,
            weight: w,
            forked: true,
        }
    }

    /// Release a previously placed process. Returns the task death if the
    /// instance expired (load reached zero and it was not perpetual).
    pub fn release(&mut self, placement: &Placement) -> Option<TaskDeath> {
        let at = self.instances.iter().position(|i| i.id == placement.task)?;
        let inst = &mut self.instances[at];
        inst.load = inst.load.saturating_sub(placement.weight);
        if inst.load == 0 && !inst.perpetual && inst.id != TaskInstanceId(0) {
            // Only alive instances are kept (in fork order, which first-fit
            // placement depends on), so a fleet that forks and expires an
            // instance per job stays the size of its live set.
            let dead = self.instances.remove(at);
            return Some(TaskDeath {
                task: dead.id,
                host: dead.host,
            });
        }
        None
    }

    /// Kill an idle perpetual instance explicitly (end of application).
    pub fn expire_idle(&mut self) -> Vec<TaskDeath> {
        let mut deaths = Vec::new();
        self.instances.retain(|inst| {
            let idle = inst.load == 0 && inst.id != TaskInstanceId(0);
            if idle {
                deaths.push(TaskDeath {
                    task: inst.id,
                    host: inst.host.clone(),
                });
            }
            !idle
        });
        deaths
    }

    /// Number of alive task instances (including the start-up instance).
    pub fn alive_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of distinct machines currently hosting an alive instance —
    /// the "number of machines" the paper plots in Figure 1.
    pub fn machines_in_use(&self) -> usize {
        let mut hosts: Vec<&HostName> = self.instances.iter().map(|i| &i.host).collect();
        hosts.sort();
        hosts.dedup();
        hosts.len()
    }

    /// Number of alive instances currently *parked*: perpetual instances
    /// whose load dropped back to zero and that are waiting to welcome new
    /// processes. The start-up instance is excluded — it is the
    /// application's anchor, not an idle fleet member. This is the
    /// observable half of `{perpetual}`: between jobs of a multi-job
    /// engine every worker instance shows up here instead of dying.
    pub fn parked_instances(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| i.load == 0 && i.perpetual && i.id != TaskInstanceId(0))
            .count()
    }

    /// Current load of a task instance, if it is alive.
    pub fn load_of(&self, task: TaskInstanceId) -> Option<u32> {
        self.instances.iter().find(|i| i.id == task).map(|i| i.load)
    }

    /// Is the given instance alive?
    pub fn is_alive(&self, task: TaskInstanceId) -> bool {
        self.instances.iter().any(|i| i.id == task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_MLINK: &str = r#"
# mainprog.mlink
{task *
    {perpetual}
    {load 1}
    {weight Master 1}
    {weight Worker 1}
}
{task mainprog
    {include mainprog.o}
    {include protocolMW.o}
}
"#;

    fn paper_bundler() -> Bundler {
        let link = LinkSpec::parse(PAPER_MLINK).unwrap();
        let config = ConfigSpec::with_startup("bumpa")
            .host("h1", "diplice")
            .host("h2", "alboka")
            .host("h3", "altfluit")
            .host("h4", "arghul")
            .host("h5", "basfluit")
            .locus("mainprog", &["h1", "h2", "h3", "h4", "h5"]);
        Bundler::new(link, config)
    }

    #[test]
    fn parses_paper_mlink() {
        let link = LinkSpec::parse(PAPER_MLINK).unwrap();
        assert!(link.perpetual);
        assert_eq!(link.load_limit, 1);
        assert_eq!(link.weight_of(&Name::new("Master")), 1);
        assert_eq!(link.weight_of(&Name::new("Worker")), 1);
        assert_eq!(link.weight_of(&Name::new("Main")), 0);
        assert_eq!(link.main_task().as_str(), "mainprog");
    }

    #[test]
    fn coordinator_rides_startup_task() {
        let mut b = paper_bundler();
        let p = b.place(&Name::new("Main"));
        assert_eq!(p.task, TaskInstanceId(0));
        assert_eq!(p.host.as_str(), "bumpa");
        assert!(!p.forked);
    }

    #[test]
    fn master_fills_startup_instance_then_workers_fork() {
        let mut b = paper_bundler();
        // Master (weight 1) fits in the start-up instance (load 0, limit 1).
        let m = b.place(&Name::new("Master"));
        assert_eq!(m.task, TaskInstanceId(0));
        assert_eq!(m.host.as_str(), "bumpa");
        // The next worker no longer fits: forks a new instance elsewhere.
        let w1 = b.place(&Name::new("Worker"));
        assert!(w1.forked);
        assert_ne!(w1.host.as_str(), "bumpa");
        let w2 = b.place(&Name::new("Worker"));
        assert!(w2.forked);
        assert_ne!(w2.host, w1.host);
        assert_eq!(b.machines_in_use(), 3);
    }

    #[test]
    fn perpetual_instances_are_reused() {
        let mut b = paper_bundler();
        b.place(&Name::new("Master"));
        let w1 = b.place(&Name::new("Worker"));
        assert!(w1.forked);
        // Worker dies; perpetual instance survives at load 0.
        assert_eq!(b.release(&w1), None);
        assert!(b.is_alive(w1.task));
        // A new worker reuses the same instance instead of forking.
        let w2 = b.place(&Name::new("Worker"));
        assert!(!w2.forked);
        assert_eq!(w2.task, w1.task);
    }

    #[test]
    fn non_perpetual_instances_die() {
        let link = LinkSpec::default()
            .load(1)
            .weight("Filler", 1)
            .weight("Worker", 1)
            .task("t");
        let config = ConfigSpec::with_startup("s")
            .host("h", "m1")
            .locus("t", &["h"]);
        let mut b = Bundler::new(link, config);
        // Fill the start-up instance first (it is always perpetual).
        let filler = b.place(&Name::new("Filler"));
        assert!(!filler.forked);
        let w = b.place(&Name::new("Worker"));
        assert!(w.forked);
        let death = b.release(&w).expect("instance should die");
        assert_eq!(death.task, w.task);
        assert!(!b.is_alive(w.task));
        // Next worker forks a fresh instance.
        let w2 = b.place(&Name::new("Worker"));
        assert!(w2.forked);
        assert_ne!(w2.task, w.task);
    }

    #[test]
    fn fork_expire_cycles_do_not_accumulate_dead_instances() {
        let mut b = paper_bundler();
        // Non-perpetual: every worker's instance dies when it leaves.
        b.link.perpetual = false;
        let master = b.place(&Name::new("Master"));
        for _ in 0..1000 {
            let w1 = b.place(&Name::new("Worker"));
            let w2 = b.place(&Name::new("Worker"));
            assert!(w1.forked && w2.forked);
            assert!(b.release(&w1).is_some());
            assert!(b.release(&w2).is_some());
            assert!(!b.is_alive(w1.task));
        }
        assert_eq!(b.instances.len(), 1, "only the start-up instance");
        assert_eq!(b.alive_instances(), 1);
        assert_eq!(b.release(&master), None);
    }

    #[test]
    fn load_six_bundles_everyone_together() {
        // The paper's parallel variant: change load to 6 and all workers end
        // up in the same task instance.
        let link = LinkSpec::parse(PAPER_MLINK).unwrap().load(6);
        let config = ConfigSpec::with_startup("bumpa");
        let mut b = Bundler::new(link, config);
        let m = b.place(&Name::new("Master"));
        let mut tasks = vec![m.task];
        for _ in 0..5 {
            tasks.push(b.place(&Name::new("Worker")).task);
        }
        assert!(tasks.iter().all(|t| *t == tasks[0]));
        assert_eq!(b.machines_in_use(), 1);
    }

    #[test]
    fn machines_count_reflects_distinct_hosts() {
        let mut b = paper_bundler();
        b.place(&Name::new("Master"));
        for _ in 0..5 {
            b.place(&Name::new("Worker"));
        }
        // bumpa + 5 locus machines.
        assert_eq!(b.machines_in_use(), 6);
    }

    #[test]
    fn more_instances_than_hosts_round_robin() {
        let link = LinkSpec::default()
            .load(1)
            .weight("Filler", 1)
            .weight("Worker", 1)
            .task("t")
            .perpetual(false);
        let config = ConfigSpec::with_startup("s")
            .host("a", "m1")
            .host("b", "m2")
            .locus("t", &["a", "b"]);
        let mut b = Bundler::new(link, config);
        b.place(&Name::new("Filler")); // occupies the start-up instance
        let hosts: Vec<_> = (0..4).map(|_| b.place(&Name::new("Worker")).host).collect();
        // 4 forked instances over 2 locus hosts: 2 each.
        assert_eq!(hosts.iter().filter(|h| h.as_str() == "m1").count(), 2);
        assert_eq!(hosts.iter().filter(|h| h.as_str() == "m2").count(), 2);
    }

    #[test]
    fn sexpr_parser_nesting_and_comments() {
        let sx = parse_sexprs("# c\n{a {b c} d}").unwrap();
        assert_eq!(
            sx,
            vec![Sexp::Group(vec![
                Sexp::Atom("a".into()),
                Sexp::Group(vec![Sexp::Atom("b".into()), Sexp::Atom("c".into())]),
                Sexp::Atom("d".into()),
            ])]
        );
    }

    #[test]
    fn sexpr_parser_rejects_unbalanced() {
        assert!(parse_sexprs("{a").is_err());
        assert!(parse_sexprs("a}").is_err());
    }

    #[test]
    fn parked_instances_counts_idle_perpetual_fleet() {
        let mut b = paper_bundler();
        b.place(&Name::new("Master"));
        let w1 = b.place(&Name::new("Worker"));
        let w2 = b.place(&Name::new("Worker"));
        assert_eq!(b.parked_instances(), 0);
        b.release(&w1);
        b.release(&w2);
        // Both worker instances park instead of dying…
        assert_eq!(b.parked_instances(), 2);
        // …and a new job's worker un-parks one.
        let w3 = b.place(&Name::new("Worker"));
        assert!(!w3.forked);
        assert_eq!(b.parked_instances(), 1);
    }

    #[test]
    fn expire_idle_reaps_perpetual_instances() {
        let mut b = paper_bundler();
        b.place(&Name::new("Master"));
        let w = b.place(&Name::new("Worker"));
        b.release(&w);
        assert!(b.is_alive(w.task));
        let deaths = b.expire_idle();
        assert_eq!(deaths.len(), 1);
        assert!(!b.is_alive(w.task));
    }
}
