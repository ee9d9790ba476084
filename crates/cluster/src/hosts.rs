//! Host and cluster descriptions.

use manifold::config::HostName;

/// One workstation.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// Machine name.
    pub name: HostName,
    /// Clock rate in MHz (the paper's machines: 1200/1400/1466).
    pub mhz: f64,
    /// Cache size in KiB (256 on every paper machine; kept for the record —
    /// the cost model folds cache effects into the calibrated flop rate).
    pub cache_kib: u32,
}

impl Host {
    /// A host with the given name and clock.
    pub fn new(name: impl Into<HostName>, mhz: f64) -> Host {
        Host {
            name: name.into(),
            mhz,
            cache_kib: 256,
        }
    }

    /// Speed relative to the cluster's reference 1200 MHz machine.
    pub(crate) fn rel_speed(&self) -> f64 {
        self.mhz / 1200.0
    }
}

/// A named collection of hosts. The first host is the start-up machine
/// (where the first task instance, and hence the master, runs).
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// All machines, start-up machine first.
    pub hosts: Vec<Host>,
    /// Effective floating-point rate of the reference (1200 MHz) machine,
    /// in flop/s. This is the single calibration constant tying the
    /// solver's architecture-independent work counts to seconds; see
    /// EXPERIMENTS.md for how it is chosen against the paper's Table 1.
    pub ref_flops_per_sec: f64,
}

impl ClusterSpec {
    /// Build a cluster from hosts (first = start-up machine).
    pub fn new(hosts: Vec<Host>, ref_flops_per_sec: f64) -> ClusterSpec {
        assert!(!hosts.is_empty(), "cluster needs at least one host");
        assert!(ref_flops_per_sec > 0.0);
        ClusterSpec {
            hosts,
            ref_flops_per_sec,
        }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when the cluster has no machines (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Find a host by name.
    pub fn host(&self, name: &HostName) -> Option<&Host> {
        self.hosts.iter().find(|h| &h.name == name)
    }

    /// Absolute speed of a host in flop/s (reference rate × relative
    /// clock). Unknown hosts run at the reference rate.
    pub fn flops_per_sec(&self, name: &HostName) -> f64 {
        let rel = self.host(name).map_or(1.0, Host::rel_speed);
        self.ref_flops_per_sec * rel
    }

    /// Seconds to execute `flops` on the named host.
    pub fn compute_time(&self, name: &HostName, flops: f64) -> f64 {
        flops / self.flops_per_sec(name)
    }

    /// The start-up machine.
    pub fn startup(&self) -> &Host {
        &self.hosts[0]
    }
}

/// The paper's cluster: 32 AMD Athlon workstations — 24 × 1200 MHz,
/// 5 × 1400 MHz, 3 × 1466 MHz, 256 KiB cache each. Machine names follow the
/// paper's instrument-themed CWI naming (`bumpa`, `diplice`, `alboka`, …)
/// and are padded generically past the ones the paper shows.
pub fn paper_cluster(ref_flops_per_sec: f64) -> ClusterSpec {
    let named = [
        "bumpa", "diplice", "alboka", "altfluit", "arghul", "basfluit",
    ];
    let mut hosts = Vec::with_capacity(32);
    for i in 0..32usize {
        let name = if i < named.len() {
            format!("{}.sen.cwi.nl", named[i])
        } else {
            format!("athlon{:02}.sen.cwi.nl", i)
        };
        // Distribute the clocks: the 5 faster and 3 fastest machines at the
        // end of the list (the start-up machine is a 1200 MHz one).
        let mhz = if i >= 29 {
            1466.0
        } else if i >= 24 {
            1400.0
        } else {
            1200.0
        };
        hosts.push(Host::new(name, mhz));
    }
    ClusterSpec::new(hosts, ref_flops_per_sec)
}

/// A deterministic heterogeneous cluster of `n` simulated hosts for the
/// sharded-fleet scaling study (1,000–10,000 hosts). The machine mix
/// extrapolates the paper's lab: a majority of reference-speed (1200 MHz)
/// workstations with faster tiers mixed in at seed-chosen positions, so a
/// sweep over `n` at one seed is reproducible host for host. The first
/// host is always a reference-speed machine (the start-up machine the
/// root master runs on).
pub fn synthetic_cluster(n: usize, seed: u64, ref_flops_per_sec: f64) -> ClusterSpec {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    assert!(n >= 1, "cluster needs at least one host");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c5_a05c_0de0_f004);
    // Clock tiers with weights: 50% reference, then progressively rarer
    // faster (and a few slower) machines — the clock spread a real
    // donation-grown fleet shows.
    const TIERS: [(f64, f64); 5] = [
        (1200.0, 0.50),
        (1000.0, 0.10),
        (1400.0, 0.20),
        (1466.0, 0.12),
        (1800.0, 0.08),
    ];
    let mut hosts = Vec::with_capacity(n);
    for i in 0..n {
        let mhz = if i == 0 {
            1200.0
        } else {
            let mut p: f64 = rng.gen();
            let mut mhz = TIERS[TIERS.len() - 1].0;
            for &(tier, w) in &TIERS {
                if p < w {
                    mhz = tier;
                    break;
                }
                p -= w;
            }
            mhz
        };
        hosts.push(Host::new(format!("sim{i:05}.fleet"), mhz));
    }
    ClusterSpec::new(hosts, ref_flops_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_composition() {
        let c = paper_cluster(1e9);
        assert_eq!(c.len(), 32);
        let n1200 = c.hosts.iter().filter(|h| h.mhz == 1200.0).count();
        let n1400 = c.hosts.iter().filter(|h| h.mhz == 1400.0).count();
        let n1466 = c.hosts.iter().filter(|h| h.mhz == 1466.0).count();
        assert_eq!((n1200, n1400, n1466), (24, 5, 3));
        assert!(c.hosts.iter().all(|h| h.cache_kib == 256));
        assert_eq!(c.startup().name.as_str(), "bumpa.sen.cwi.nl");
    }

    #[test]
    fn speeds_are_relative_to_1200() {
        let c = paper_cluster(1.2e9);
        let slow = c.flops_per_sec(&"bumpa.sen.cwi.nl".into());
        let fast = c.flops_per_sec(&"athlon31.sen.cwi.nl".into());
        assert!((slow - 1.2e9).abs() < 1.0);
        assert!((fast / slow - 1466.0 / 1200.0).abs() < 1e-12);
    }

    #[test]
    fn compute_time_scales_inversely_with_speed() {
        let c = paper_cluster(1e9);
        let t_slow = c.compute_time(&"bumpa.sen.cwi.nl".into(), 1e9);
        let t_fast = c.compute_time(&"athlon31.sen.cwi.nl".into(), 1e9);
        assert!((t_slow - 1.0).abs() < 1e-12);
        assert!(t_fast < t_slow);
    }

    #[test]
    fn unknown_host_runs_at_reference_speed() {
        let c = paper_cluster(1e9);
        assert_eq!(c.flops_per_sec(&"nowhere".into()), 1e9);
    }

    #[test]
    fn synthetic_cluster_is_deterministic_and_heterogeneous() {
        let a = synthetic_cluster(1000, 7, 1e9);
        let b = synthetic_cluster(1000, 7, 1e9);
        assert_eq!(a, b, "same seed must give the same fleet");
        let c = synthetic_cluster(1000, 8, 1e9);
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a.len(), 1000);
        // The start-up machine is the 1200 MHz reference.
        assert_eq!(a.startup().mhz, 1200.0);
        // Heterogeneous: at least three distinct clock tiers present.
        let mut clocks: Vec<u64> = a.hosts.iter().map(|h| h.mhz as u64).collect();
        clocks.sort_unstable();
        clocks.dedup();
        assert!(clocks.len() >= 3, "tiers seen: {clocks:?}");
        // Names unique.
        let mut names: Vec<_> = a.hosts.iter().map(|h| h.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 1000);
    }

    #[test]
    fn host_names_are_unique() {
        let c = paper_cluster(1e9);
        let mut names: Vec<_> = c.hosts.iter().map(|h| h.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 32);
    }
}
