//! The four workloads and the sequential oracle every reply is checked
//! against.

use serve::proto::field_checksum;
use solver::sequential::{SequentialApp, SequentialResult};

/// Worker processes (and the LPT bound's worker count) on the procs backend.
pub const INSTANCES: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobClass {
    pub root: u32,
    pub level: u32,
    /// Integrator tolerance (the paper's `le_tol`: 1e-3 or 1e-4).
    pub tol: f64,
}

impl JobClass {
    pub fn app(&self) -> SequentialApp {
        SequentialApp::new(self.root, self.level, self.tol)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Procs,
    Threads,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Procs => "procs",
            Backend::Threads => "threads",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Each tenant keeps `window` submits open; a reply funds the next.
    Closed { window: usize },
    /// Poisson arrivals on a seeded schedule at a fixed mean rate, whatever
    /// the daemon's pace. Latency counts from each job's due time, and a
    /// job counts towards `jobs_per_s` only if it is verified within
    /// `limit_ms` of it.
    Open { rate_per_s: f64, limit_ms: f64 },
}

/// The spawned `mf-served` of a serving workload and the load its two
/// tenants put on it.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    pub backend: Backend,
    pub journal: bool,
    /// Admission weights of the two tenants.
    pub weights: [u32; 2],
    pub load: Load,
}

pub struct Workload {
    pub name: &'static str,
    /// `None` is `coord_protocol`: no daemon, back-to-back protocol runs in
    /// this process.
    pub served: Option<Served>,
    /// Job classes and their shares, smallest class first. For
    /// `coord_protocol`, the class of its sparse-grid master.
    pub mix: &'static [(JobClass, f64)],
    /// `rss_peak_mb` is read when this many jobs of the load have been
    /// verified, so that it does not follow the number of jobs a run gets
    /// through: about a third of what the sandbox this was sized on serves
    /// in one run.
    pub rss_at_jobs: u64,
}

const SMALL: JobClass = JobClass {
    root: 1,
    level: 2,
    tol: 1e-3,
};
const MEDIUM: JobClass = JobClass {
    root: 2,
    level: 5,
    tol: 1e-3,
};
/// Seven subsolves of 1k–2k unknowns at the paper's tighter tolerance:
/// sized so that `solver.lpt_makespan_ms` is well over 70 % of
/// `renovation.engine.job_ms` (README, "Sizing").
const HEAVY: JobClass = JobClass {
    root: 4,
    level: 3,
    tol: 1e-4,
};

pub const ALL: [Workload; 4] = [
    Workload {
        name: "serve_small",
        served: Some(Served {
            backend: Backend::Procs,
            journal: true,
            weights: [1, 1],
            load: Load::Closed { window: 8 },
        }),
        mix: &[(SMALL, 1.0)],
        rss_at_jobs: 1500,
    },
    Workload {
        name: "solve_heavy",
        served: Some(Served {
            backend: Backend::Procs,
            journal: true,
            weights: [1, 1],
            load: Load::Closed { window: 2 },
        }),
        mix: &[(HEAVY, 1.0)],
        rss_at_jobs: 100,
    },
    Workload {
        name: "serve_mixed_open",
        served: Some(Served {
            backend: Backend::Threads,
            journal: false,
            weights: [4, 1],
            // Rate and limit: README, "Sizing".
            load: Load::Open {
                rate_per_s: 100.0,
                limit_ms: 25.0,
            },
        }),
        mix: &[(SMALL, 0.9), (MEDIUM, 0.1)],
        rss_at_jobs: 700,
    },
    Workload {
        name: "coord_protocol",
        served: None,
        mix: &[(SMALL, 1.0)],
        rss_at_jobs: 2500,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn shares(&self) -> Vec<f64> {
        self.mix.iter().map(|(_, s)| *s).collect()
    }

    pub fn max_level(&self) -> u32 {
        self.mix.iter().map(|(c, _)| c.level).max().unwrap_or(0)
    }

    /// The class the per-layer probes and the ladder run on: the one most
    /// of the workload's jobs belong to.
    pub fn main_class(&self) -> JobClass {
        self.mix
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty mix")
            .0
    }
}

/// What a correct reply for one job class looks like, from a plain
/// sequential run of the same problem.
pub struct Oracle {
    pub class: JobClass,
    pub checksum: u64,
    pub result: SequentialResult,
}

impl Oracle {
    pub fn compute(class: JobClass) -> Result<Oracle, String> {
        let result = class
            .app()
            .run()
            .map_err(|e| format!("sequential oracle {class:?}: {e}"))?;
        Ok(Oracle {
            class,
            checksum: field_checksum(&result.combined),
            result,
        })
    }

    /// Is this `Done` bit-identical to the sequential run?
    pub fn accepts(&self, l2_error: f64, combined: &[f64]) -> bool {
        l2_error.to_bits() == self.result.l2_error.to_bits()
            && field_checksum(combined) == self.checksum
    }
}
