//! Interconnect (inter-node network) models.
//!
//! The simulated MPI layer (`exa-mpi`) prices messages and collectives with
//! the classic α–β (latency–bandwidth) model on top of these parameters.
//! Three fabrics appear in the paper: dual-rail EDR InfiniBand (Summit),
//! HPE Slingshot 10 with 100 GbE NICs (Spock/Birch), and Slingshot 11 with
//! 200 GbE NICs (Crusher/Frontier). The Cray Aries fabrics of Cori/Theta and
//! Eagle's EDR IB cover the Figure 2 machines.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// α–β model of one network fabric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterconnectModel {
    /// Fabric name.
    pub name: String,
    /// Software+switch latency per message (α).
    pub alpha: SimTime,
    /// Per-NIC injection bandwidth, bytes/s.
    pub nic_bandwidth: f64,
    /// Extra per-message latency when staging through host memory instead of
    /// using GPU-aware (GPUDirect / GPU-NIC) paths.
    pub host_staging_penalty: SimTime,
    /// Effective bisection-bandwidth derating for global traffic patterns
    /// (all-to-all); 1.0 = full bisection.
    pub bisection_factor: f64,
}

impl InterconnectModel {
    /// Summit's dual-rail EDR InfiniBand.
    pub fn ib_edr_dual() -> Self {
        InterconnectModel {
            name: "EDR InfiniBand (dual rail)".into(),
            alpha: SimTime::from_micros(1.5),
            nic_bandwidth: 12.5e9,
            host_staging_penalty: SimTime::from_micros(8.0),
            bisection_factor: 0.5,
        }
    }

    /// HPE Slingshot 10 (100 GbE interface) — Spock and Birch (§4).
    pub fn slingshot10() -> Self {
        InterconnectModel {
            name: "HPE Slingshot 10 (100 GbE)".into(),
            alpha: SimTime::from_micros(2.0),
            nic_bandwidth: 12.5e9,
            host_staging_penalty: SimTime::from_micros(8.0),
            bisection_factor: 0.6,
        }
    }

    /// HPE Slingshot 11 (200 GbE interface) — Crusher and Frontier (§4).
    pub fn slingshot11() -> Self {
        InterconnectModel {
            name: "HPE Slingshot 11 (200 GbE)".into(),
            alpha: SimTime::from_micros(1.7),
            nic_bandwidth: 25.0e9,
            host_staging_penalty: SimTime::from_micros(8.0),
            bisection_factor: 0.65,
        }
    }

    /// Cray Aries (Cori, Theta).
    pub fn aries() -> Self {
        InterconnectModel {
            name: "Cray Aries".into(),
            alpha: SimTime::from_micros(1.3),
            nic_bandwidth: 10.0e9,
            host_staging_penalty: SimTime::ZERO, // CPU machines: nothing to stage
            bisection_factor: 0.45,
        }
    }

    /// Single-rail EDR InfiniBand (Eagle).
    pub fn ib_edr() -> Self {
        InterconnectModel {
            name: "EDR InfiniBand".into(),
            alpha: SimTime::from_micros(1.5),
            nic_bandwidth: 12.5e9,
            host_staging_penalty: SimTime::ZERO,
            bisection_factor: 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slingshot11_outruns_slingshot10() {
        let s10 = InterconnectModel::slingshot10();
        let s11 = InterconnectModel::slingshot11();
        assert!(s11.nic_bandwidth > s10.nic_bandwidth);
        assert!(s11.alpha <= s10.alpha);
    }
}
