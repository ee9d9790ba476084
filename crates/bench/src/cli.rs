//! Shared flag parsing for the bench binaries.
//!
//! Every bench binary parses its command line here: position-independent
//! `--flag [value]` pairs, typed accessors with defaults, and *usage +
//! exit code 2* instead of a panic backtrace or a silent default when a
//! value is missing or malformed. Flags a binary does not ask for are
//! ignored.

use std::path::PathBuf;
use std::str::FromStr;

use protocol::PolicyRef;

use crate::live::Backend;

/// Parsed command line of one bench binary.
pub struct Cli {
    bin: &'static str,
    usage: &'static str,
    args: Vec<String>,
}

impl Cli {
    /// Capture this process's arguments. `usage` is the flag summary
    /// printed (with `bin`) when parsing fails.
    pub fn parse(bin: &'static str, usage: &'static str) -> Cli {
        Cli {
            bin,
            usage,
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Print the offending flag and the usage line, then exit(2) — the
    /// conventional "bad command line" status, distinct from a run that
    /// started and failed.
    pub fn usage_exit(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        eprintln!("usage: {} {}", self.bin, self.usage);
        std::process::exit(2);
    }

    /// Is the bare flag present?
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following `name`, if the flag is present. A flag present
    /// without a value (or followed by another flag) is a usage error.
    pub fn value(&self, name: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == name)?;
        match self.args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => self.usage_exit(&format!("{name} needs a value")),
        }
    }

    /// Typed value with a default; a malformed value is a usage error.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> T {
        self.parsed_opt(name).unwrap_or(default)
    }

    /// Typed optional value; a malformed value is a usage error.
    fn parsed_opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        match v.parse() {
            Ok(t) => Some(t),
            Err(_) => self.usage_exit(&format!("{name}: cannot parse {v:?}")),
        }
    }

    /// The first argument that is neither a flag nor a flag's value (the
    /// word after a `--flag` is its value), parsed; a malformed one is a
    /// usage error.
    pub fn positional<T: FromStr>(&self, what: &str) -> Option<T> {
        let v = self
            .args
            .iter()
            .enumerate()
            .find(|&(i, a)| {
                !a.starts_with("--") && (i == 0 || !self.args[i - 1].starts_with("--"))
            })?
            .1;
        match v.parse() {
            Ok(t) => Some(t),
            Err(_) => self.usage_exit(&format!("{what}: cannot parse {v:?}")),
        }
    }

    /// `--level-range L..=M` (inclusive) or, failing that, `--level N` as
    /// a single-level range. A decreasing range is a usage error.
    pub fn level_range(&self, default: u32) -> std::ops::RangeInclusive<u32> {
        if let Some(spec) = self.value("--level-range") {
            let bounds = spec
                .split_once("..=")
                .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)));
            match bounds {
                Some((lo, hi)) if lo <= hi => lo..=hi,
                _ => self.usage_exit(&format!(
                    "--level-range: expected L..=M with L <= M, got {spec:?}"
                )),
            }
        } else {
            let l = self.parsed("--level", default);
            l..=l
        }
    }

    /// `--policy paper-faithful|bounded-reuse:N|cost-aware`, defaulting to
    /// the paper's dispatch order.
    pub fn policy(&self) -> PolicyRef {
        match self.value("--policy") {
            None => std::sync::Arc::new(protocol::PaperFaithful),
            Some(spec) => match protocol::parse_policy(spec) {
                Some(p) => p,
                None => self.usage_exit(&format!(
                    "--policy: unknown policy {spec:?} \
                     (expected paper-faithful, bounded-reuse:N, or cost-aware)"
                )),
            },
        }
    }

    /// `--backend sim|threads|procs|all` (the caller decides whether `all`
    /// is meaningful), defaulting to `default`.
    pub fn backend(&self, default: Backend) -> Backend {
        match self.value("--backend") {
            None => default,
            Some(v) => match Backend::parse(v) {
                Some(b) => b,
                None => self.usage_exit(&format!(
                    "--backend: unknown backend {v:?} (expected sim, threads, or procs)"
                )),
            },
        }
    }

    /// `--checkpoint-dir DIR`.
    pub fn checkpoint_dir(&self) -> Option<PathBuf> {
        self.value("--checkpoint-dir").map(PathBuf::from)
    }

    /// `--resume`, which needs a `--checkpoint-dir` to resume from.
    pub fn resume(&self) -> bool {
        let resume = self.flag("--resume");
        if resume && self.checkpoint_dir().is_none() {
            self.usage_exit("--resume needs --checkpoint-dir");
        }
        resume
    }

    /// `--shards N` plus `--steal on|off` — the sharded-fleet dispatch
    /// spec. Defaults to one shard (the flat master) with stealing on.
    pub fn shards(&self) -> protocol::ShardSpec {
        let n: usize = self.parsed("--shards", 1);
        let spec = protocol::ShardSpec::new(n.max(1));
        match self.value("--steal") {
            None => spec,
            Some("on") => spec.with_steal(true),
            Some("off") => spec.with_steal(false),
            Some(v) => self.usage_exit(&format!("--steal: expected on or off, got {v:?}")),
        }
    }

    /// `--churn join@N,leave@M,...` — worker membership churn keyed on
    /// 1-based dispatch ordinals. Defaults to no churn.
    pub fn churn(&self) -> protocol::ChurnPlan {
        match self.value("--churn") {
            None => protocol::ChurnPlan::default(),
            Some(spec) => match protocol::ChurnPlan::parse(spec) {
                Ok(plan) => plan,
                Err(e) => self.usage_exit(&format!("--churn: malformed plan {spec:?}: {e}")),
            },
        }
    }

    /// The raw `--faults` specification, if present (a bare seed or a full
    /// textual plan — resolve per run with [`Cli::fault_plan`]).
    pub fn fault_spec(&self) -> Option<String> {
        self.value("--faults").map(str::to_string)
    }

    /// Resolve a `--faults` specification: a bare u64 is a seed for a
    /// generated schedule over `instances` workers and `jobs` jobs; any
    /// other text must parse as a full [`chaos::FaultPlan`].
    pub fn fault_plan(&self, spec: &str, instances: u64, jobs: u64) -> chaos::FaultPlan {
        match spec.parse::<u64>() {
            Ok(seed) => chaos::FaultPlan::from_seed(seed, instances, jobs),
            Err(_) => match chaos::FaultPlan::parse(spec) {
                Ok(plan) => plan,
                Err(e) => self.usage_exit(&format!("--faults: malformed plan {spec:?}: {e}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli {
            bin: "test",
            usage: "[--x N]",
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn flags_values_and_defaults() {
        let c = cli(&["--resume", "--level", "7", "--tol", "1e-4"]);
        assert!(c.flag("--resume"));
        assert!(!c.flag("--io-workers"));
        assert_eq!(c.parsed("--level", 14u32), 7);
        assert_eq!(c.parsed("--runs", 5usize), 5);
        assert_eq!(c.parsed_opt::<f64>("--tol"), Some(1e-4));
        assert_eq!(c.value("--missing"), None);
    }

    #[test]
    fn a_positional_is_neither_a_flag_nor_its_value() {
        assert_eq!(cli(&["--runs", "3"]).positional::<u32>("figure"), None);
        assert_eq!(cli(&["--runs", "3", "4"]).positional("figure"), Some(4u32));
        assert_eq!(cli(&["2", "--runs", "1"]).positional("figure"), Some(2u32));
    }

    #[test]
    fn level_range_parses_and_falls_back_to_single_level() {
        assert_eq!(cli(&["--level-range", "6..=8"]).level_range(3), 6..=8);
        assert_eq!(cli(&["--level", "5"]).level_range(3), 5..=5);
        assert_eq!(cli(&[]).level_range(3), 3..=3);
    }

    #[test]
    fn policy_and_backend_parse() {
        let c = cli(&["--policy", "bounded-reuse:3", "--backend", "threads"]);
        assert_eq!(c.policy().name(), "bounded-reuse");
        assert_eq!(c.backend(Backend::Sim), Backend::Threads);
        assert_eq!(cli(&[]).backend(Backend::Sim), Backend::Sim);
        assert_eq!(cli(&[]).policy().name(), "paper-faithful");
    }

    #[test]
    fn shards_and_churn_parse() {
        let c = cli(&[
            "--shards",
            "4",
            "--steal",
            "off",
            "--churn",
            "join@3,leave@6",
        ]);
        let spec = c.shards();
        assert_eq!(spec.shards, 4);
        assert!(!spec.steal);
        let churn = c.churn();
        assert_eq!(churn.joins, vec![3]);
        assert_eq!(churn.leaves, vec![6]);
        let d = cli(&[]);
        assert!(d.shards().is_flat());
        assert!(d.shards().steal);
        assert!(d.churn().is_empty());
    }

    #[test]
    fn fault_plan_resolves_seed_or_plan() {
        let c = cli(&[]);
        let seeded = c.fault_plan("42", 2, 9);
        assert_eq!(seeded.seed, 42);
        let plan = c.fault_plan("seed:7,crash:0@2", 2, 9);
        assert_eq!(plan.faults.len(), 1);
        assert_eq!(plan.seed, 7);
    }
}
