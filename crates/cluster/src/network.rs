//! The switched-Ethernet network model.
//!
//! A transfer of `b` bytes between two distinct machines costs
//! `latency + b / bandwidth` seconds. Transfers within one machine (master
//! and worker bundled in the same task instance, or two threads of one
//! task) cost only a memory-copy: `b / mem_bandwidth`.

use serde::{Deserialize, Serialize};

/// Point-to-point network + memory-copy cost model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// One-way message latency in seconds (switch + stack).
    pub latency: f64,
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Intra-machine memory-copy bandwidth in bytes/second.
    pub mem_bandwidth: f64,
}

impl NetworkModel {
    /// The paper's network: 100 Mbps switched Ethernet. Sustained TCP over
    /// 100 Mbps in 2003 ≈ 11 MB/s; PC memory copies ≈ 400 MB/s.
    pub(crate) fn switched_ethernet_100mbps() -> NetworkModel {
        NetworkModel {
            latency: 150e-6,
            bandwidth: 11.0e6,
            mem_bandwidth: 400.0e6,
        }
    }

    /// Calibrate a model from two measured transport round-trips (as
    /// produced by the `transport_bench` loopback benchmark): a `small`
    /// payload whose round-trip is latency-dominated and a `large` payload
    /// whose round-trip is bandwidth-dominated. Each sample is
    /// `(payload_bytes, round_trip_seconds)`; a round trip moves the
    /// payload twice, so with one-way time `t(b) = latency + b / bandwidth`
    /// the two samples solve `rtt = 2 * t(b)` exactly:
    ///
    /// ```text
    /// bandwidth = 2 * (b_large - b_small) / (rtt_large - rtt_small)
    /// latency   = rtt_small / 2 - b_small / bandwidth
    /// ```
    ///
    /// `mem_bandwidth` keeps its direct measurement (an in-process copy
    /// benchmark), since loopback sockets never exercise it.
    pub fn from_loopback_measurement(
        small: (usize, f64),
        large: (usize, f64),
        mem_bandwidth: f64,
    ) -> Result<NetworkModel, String> {
        let (b0, r0) = small;
        let (b1, r1) = large;
        if b1 <= b0 {
            return Err(format!("payloads not increasing: {b0} then {b1} bytes"));
        }
        if r1 <= r0 {
            return Err(format!(
                "round-trips not increasing: {r0}s then {r1}s — samples too noisy to calibrate"
            ));
        }
        if mem_bandwidth.is_nan() || mem_bandwidth <= 0.0 {
            return Err(format!(
                "mem_bandwidth must be positive, got {mem_bandwidth}"
            ));
        }
        let bandwidth = 2.0 * (b1 - b0) as f64 / (r1 - r0);
        let latency = (r0 / 2.0 - b0 as f64 / bandwidth).max(0.0);
        Ok(NetworkModel {
            latency,
            bandwidth,
            mem_bandwidth,
        })
    }

    /// Transfer time for `bytes` between two *different* machines.
    pub fn remote_transfer(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Transfer time for `bytes` within one machine.
    pub(crate) fn local_transfer(&self, bytes: usize) -> f64 {
        bytes as f64 / self.mem_bandwidth
    }

    /// Transfer time, picking remote or local by `same_host`.
    pub fn transfer(&self, bytes: usize, same_host: bool) -> f64 {
        if same_host {
            self.local_transfer(bytes)
        } else {
            self.remote_transfer(bytes)
        }
    }
}

/// Two-level fabric for a sharded fleet: each pool's hosts hang off one
/// edge switch (the paper's 100 Mbps switched-Ethernet model), and pools
/// are joined by an aggregation layer, so a transfer that crosses pools
/// pays extra hops and a shared, oversubscribed uplink. This is what makes
/// work stealing and re-homing *cost* something in the DES: a stolen job's
/// input crosses the inter-pool link instead of staying on the edge
/// switch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FabricModel {
    /// Links within one pool (host ↔ host, shard master ↔ its workers).
    pub intra: NetworkModel,
    /// Links between pools (root ↔ shard masters, steals, re-homes).
    pub inter: NetworkModel,
}

impl FabricModel {
    /// The scaling study's fabric: paper-era edge switches, with the
    /// aggregation layer adding two switch hops of latency and a 4:1
    /// oversubscribed uplink.
    pub fn two_level_2004() -> FabricModel {
        let intra = NetworkModel::switched_ethernet_100mbps();
        FabricModel {
            intra,
            inter: NetworkModel {
                latency: intra.latency * 3.0,
                bandwidth: intra.bandwidth / 4.0,
                mem_bandwidth: intra.mem_bandwidth,
            },
        }
    }

    /// A flat fabric (one switch): inter-pool costs equal intra-pool.
    /// What a single-shard (paper-topology) run sees.
    pub fn flat(net: NetworkModel) -> FabricModel {
        FabricModel {
            intra: net,
            inter: net,
        }
    }

    /// Transfer time for `bytes`, picking the link by locality.
    pub fn transfer(&self, bytes: usize, same_host: bool, same_pool: bool) -> f64 {
        if same_host {
            self.intra.local_transfer(bytes)
        } else if same_pool {
            self.intra.remote_transfer(bytes)
        } else {
            self.inter.remote_transfer(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_includes_latency() {
        let n = NetworkModel::switched_ethernet_100mbps();
        assert!(n.remote_transfer(0) > 0.0);
        assert_eq!(n.remote_transfer(0), n.latency);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let n = NetworkModel::switched_ethernet_100mbps();
        let t = n.remote_transfer(11_000_000);
        assert!((t - (n.latency + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn local_is_faster_than_remote() {
        let n = NetworkModel::switched_ethernet_100mbps();
        for &b in &[0usize, 1024, 1 << 20, 1 << 24] {
            assert!(n.local_transfer(b) < n.remote_transfer(b));
        }
    }

    #[test]
    fn transfer_dispatches_on_same_host() {
        let n = NetworkModel::switched_ethernet_100mbps();
        assert_eq!(n.transfer(4096, true), n.local_transfer(4096));
        assert_eq!(n.transfer(4096, false), n.remote_transfer(4096));
    }

    #[test]
    fn fabric_orders_links_by_locality() {
        let f = FabricModel::two_level_2004();
        for &b in &[64usize, 4096, 1 << 20] {
            let local = f.transfer(b, true, true);
            let intra = f.transfer(b, false, true);
            let inter = f.transfer(b, false, false);
            assert!(local < intra, "memory copy beats the edge switch");
            assert!(intra < inter, "edge switch beats the aggregation hop");
        }
        let flat = FabricModel::flat(NetworkModel::switched_ethernet_100mbps());
        assert_eq!(
            flat.transfer(4096, false, true),
            flat.transfer(4096, false, false)
        );
    }

    #[test]
    fn calibration_round_trips_the_paper_model() {
        // Synthesize the samples a loopback benchmark would measure on the
        // paper's network, then recover the model from them.
        let truth = NetworkModel::switched_ethernet_100mbps();
        let small = (64usize, 2.0 * truth.remote_transfer(64));
        let large = (1 << 20, 2.0 * truth.remote_transfer(1 << 20));
        let got =
            NetworkModel::from_loopback_measurement(small, large, truth.mem_bandwidth).unwrap();
        assert!((got.bandwidth - truth.bandwidth).abs() / truth.bandwidth < 1e-9);
        assert!((got.latency - truth.latency).abs() < 1e-12);
        assert_eq!(got.mem_bandwidth, truth.mem_bandwidth);
    }

    #[test]
    fn calibration_rejects_degenerate_samples() {
        assert!(NetworkModel::from_loopback_measurement((64, 1e-4), (64, 2e-4), 1e9).is_err());
        assert!(NetworkModel::from_loopback_measurement((64, 2e-4), (1 << 20, 1e-4), 1e9).is_err());
        assert!(NetworkModel::from_loopback_measurement((64, 1e-4), (1 << 20, 2e-3), 0.0).is_err());
    }

    #[test]
    fn calibration_clamps_negative_latency_from_noise() {
        // A small sample measured faster than the line rate allows must not
        // produce a negative latency.
        let got =
            NetworkModel::from_loopback_measurement((1 << 16, 1e-6), (1 << 20, 2e-3), 1e9).unwrap();
        assert!(got.latency >= 0.0);
        assert!(got.bandwidth > 0.0);
    }
}
