//! Physical node descriptions.
//!
//! Capacity accounting uses **hardware threads** (`k^CPU` in the paper):
//! the evaluation workloads of Tables II/III only satisfy the core
//! splitting constraint (Eq. 7) when SMT threads are counted —
//! 92 000 MHz ≤ 40 × 2 400 MHz on *chetemi* and
//! 147 200 MHz ≤ 64 × 2 400 MHz on *chiclet* — so that is unambiguously
//! what the authors did.

use serde::{Deserialize, Serialize};
use vfc_cgroupfs::backend::TopologyInfo;
use vfc_simcore::{CpuId, MHz};

/// Static description of a physical machine (Table IV row + power data).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node family name (e.g. `chetemi`).
    pub name: String,
    /// Physical CPU packages.
    pub sockets: u32,
    /// Cores per package.
    pub cores_per_socket: u32,
    /// SMT threads per core (2 on both Table IV nodes).
    pub threads_per_core: u32,
    /// Maximum sustained all-core frequency (`F^MAX`, Table IV).
    pub max_mhz: MHz,
    /// Lowest P-state frequency the governor may select.
    pub min_mhz: MHz,
    /// Installed DRAM.
    pub mem_gb: u32,
    /// Power draw with all cores idle, Watts.
    pub idle_power_w: f64,
    /// Power draw with all cores busy at `max_mhz`, Watts.
    pub max_power_w: f64,
}

impl NodeSpec {
    /// A custom node with default power/memory figures.
    pub fn custom(
        name: &str,
        sockets: u32,
        cores_per_socket: u32,
        threads_per_core: u32,
        max_mhz: MHz,
    ) -> Self {
        NodeSpec {
            name: name.to_owned(),
            sockets,
            cores_per_socket,
            threads_per_core,
            max_mhz,
            min_mhz: MHz(max_mhz.as_u32() / 2),
            mem_gb: 64,
            idle_power_w: 100.0,
            max_power_w: 300.0,
        }
    }

    /// *chetemi* (Table IV): 2× Intel Xeon E5-2630 v4, 10 cores/CPU,
    /// 2 threads/core, 2 400 MHz, 256 GB RAM.
    pub fn chetemi() -> Self {
        NodeSpec {
            name: "chetemi".to_owned(),
            sockets: 2,
            cores_per_socket: 10,
            threads_per_core: 2,
            max_mhz: MHz(2400),
            min_mhz: MHz(1200),
            mem_gb: 256,
            idle_power_w: 97.0,
            max_power_w: 330.0,
        }
    }

    /// *chiclet* (Table IV): 2× AMD EPYC 7301, 16 cores/CPU,
    /// 2 threads/core, 2 400 MHz, 128 GB RAM.
    pub fn chiclet() -> Self {
        NodeSpec {
            name: "chiclet".to_owned(),
            sockets: 2,
            cores_per_socket: 16,
            threads_per_core: 2,
            max_mhz: MHz(2400),
            min_mhz: MHz(1200),
            mem_gb: 128,
            idle_power_w: 115.0,
            max_power_w: 350.0,
        }
    }

    /// Schedulable hardware threads (`k^CPU`).
    #[inline]
    pub fn nr_threads(&self) -> u32 {
        self.sockets * self.cores_per_socket * self.threads_per_core
    }

    /// All hardware-thread ids of this node.
    pub fn cpus(&self) -> impl Iterator<Item = CpuId> {
        (0..self.nr_threads()).map(CpuId::new)
    }

    /// Total frequency capacity `k^CPU × F^MAX`, the right-hand side of
    /// Eq. 7, in MHz.
    #[inline]
    pub fn freq_capacity_mhz(&self) -> u64 {
        self.nr_threads() as u64 * self.max_mhz.as_u32() as u64
    }

    /// Topology summary for the controller.
    pub fn topology_info(&self) -> TopologyInfo {
        TopologyInfo {
            nr_cpus: self.nr_threads(),
            max_mhz: self.max_mhz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_simcore::Micros;

    #[test]
    fn chetemi_matches_table_iv() {
        let n = NodeSpec::chetemi();
        assert_eq!(n.sockets * n.cores_per_socket, 20);
        assert_eq!(n.nr_threads(), 40);
        assert_eq!(n.max_mhz, MHz(2400));
        assert_eq!(n.mem_gb, 256);
        assert_eq!(n.freq_capacity_mhz(), 96_000);
    }

    #[test]
    fn chiclet_matches_table_iv() {
        let n = NodeSpec::chiclet();
        assert_eq!(n.sockets * n.cores_per_socket, 32);
        assert_eq!(n.nr_threads(), 64);
        assert_eq!(n.freq_capacity_mhz(), 153_600);
        assert_eq!(n.mem_gb, 128);
    }

    #[test]
    fn paper_workloads_satisfy_eq7_with_smt_threads() {
        // Table II on chetemi: 20 small (2 vCPU @ 500) + 10 large (4 @ 1800).
        let demand_chetemi = 20 * 2 * 500 + 10 * 4 * 1800;
        assert!(demand_chetemi as u64 <= NodeSpec::chetemi().freq_capacity_mhz());
        // ... but NOT with physical cores only; this is why k^CPU counts
        // hardware threads.
        assert!(demand_chetemi as u64 > 20 * 2400);

        // Table III on chiclet: 32 small + 16 large.
        let demand_chiclet = 32 * 2 * 500 + 16 * 4 * 1800;
        assert!(demand_chiclet as u64 <= NodeSpec::chiclet().freq_capacity_mhz());

        // "both nodes are equally loaded" — identical load ratios.
        let r1 = demand_chetemi as f64 / NodeSpec::chetemi().freq_capacity_mhz() as f64;
        let r2 = demand_chiclet as f64 / NodeSpec::chiclet().freq_capacity_mhz() as f64;
        assert!((r1 - r2).abs() < 1e-9, "{r1} vs {r2}");
    }

    #[test]
    fn topology_info_conversion() {
        let t = NodeSpec::chetemi().topology_info();
        assert_eq!(t.nr_cpus, 40);
        assert_eq!(t.max_mhz, MHz(2400));
        assert_eq!(t.c_max(Micros::SEC), Micros(40_000_000));
    }

    #[test]
    fn custom_node() {
        let n = NodeSpec::custom("demo", 1, 2, 2, MHz(3000));
        assert_eq!(n.nr_threads(), 4);
        assert_eq!(n.min_mhz, MHz(1500));
        assert_eq!(n.cpus().count(), 4);
    }
}
