//! Network configuration: interconnect model + node-sharing parameters.

use exa_machine::{InterconnectModel, MachineModel, SimTime};

/// How a communicator's ranks see the fabric.
#[derive(Debug, Clone)]
pub struct Network {
    /// The fabric's α–β parameters.
    pub model: InterconnectModel,
    /// NICs per node (Frontier has four Slingshot NICs).
    pub nics_per_node: u32,
    /// MPI ranks sharing each node (and therefore its NICs).
    pub ranks_per_node: u32,
    /// Whether payloads move NIC↔HBM directly (GPU-aware) or stage through
    /// host memory.
    pub gpu_aware: bool,
    /// Shared-fabric contention multiplier on α (≥ 1; 1 = calm fabric).
    pub alpha_contention: f64,
    /// Shared-fabric contention multiplier on β (≥ 1; 1 = calm fabric).
    pub beta_contention: f64,
}

impl Network {
    /// Build a network view from a machine model with the common
    /// one-rank-per-GPU mapping.
    pub fn from_machine(m: &MachineModel) -> Self {
        let ranks = if m.node.has_gpus() {
            m.node.gpus_per_node
        } else {
            m.node.cpu.cores
        };
        Network {
            model: m.interconnect.clone(),
            nics_per_node: m.node.nics,
            ranks_per_node: ranks.max(1),
            gpu_aware: m.node.has_gpus(),
            alpha_contention: 1.0,
            beta_contention: 1.0,
        }
    }

    /// Degrade the fabric: multiply α by `alpha_factor` and β by
    /// `beta_factor` (a congested fabric costs more per message and per
    /// byte). Factors must be ≥ 1.
    pub fn with_contention(mut self, alpha_factor: f64, beta_factor: f64) -> Self {
        assert!(
            alpha_factor >= 1.0 && beta_factor >= 1.0,
            "contention cannot speed the fabric up"
        );
        self.alpha_contention = alpha_factor;
        self.beta_contention = beta_factor;
        self
    }

    /// Override the ranks-per-node mapping.
    pub fn with_ranks_per_node(mut self, r: u32) -> Self {
        assert!(r > 0);
        self.ranks_per_node = r;
        self
    }

    /// Toggle GPU-aware transfers.
    pub fn with_gpu_aware(mut self, aware: bool) -> Self {
        self.gpu_aware = aware;
        self
    }

    /// Per-message latency (α), including the host-staging penalty when
    /// GPU-aware MPI is off.
    pub fn alpha(&self) -> SimTime {
        let base = if self.gpu_aware {
            self.model.alpha
        } else {
            self.model.alpha + self.model.host_staging_penalty
        };
        base * self.alpha_contention
    }

    /// Effective per-rank injection bandwidth in bytes/s: the node's NICs
    /// shared by its ranks, halved when staging through the host.
    pub fn rank_bandwidth(&self) -> f64 {
        let node_bw = self.model.nic_bandwidth * self.nics_per_node as f64;
        let per_rank = node_bw / self.ranks_per_node as f64;
        if self.gpu_aware {
            per_rank
        } else {
            per_rank / 2.0
        }
    }

    /// Per-byte cost (β) seen by one rank.
    pub fn beta(&self) -> f64 {
        self.beta_contention / self.rank_bandwidth()
    }

    /// β derated for bisection-limited global patterns (all-to-all).
    pub fn beta_global(&self) -> f64 {
        self.beta() / self.model.bisection_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::MachineModel;

    #[test]
    fn frontier_network_view() {
        let n = Network::from_machine(&MachineModel::frontier());
        assert_eq!(n.nics_per_node, 4);
        assert_eq!(n.ranks_per_node, 8); // one rank per GCD
        assert!(n.gpu_aware);
        // 4 x 25 GB/s shared by 8 ranks = 12.5 GB/s per rank.
        assert!((n.rank_bandwidth() - 12.5e9).abs() < 1.0);
    }

    #[test]
    fn cpu_machines_are_not_gpu_aware() {
        let n = Network::from_machine(&MachineModel::cori());
        assert!(!n.gpu_aware);
        assert_eq!(n.ranks_per_node, 68);
    }

    #[test]
    fn host_staging_costs_latency_and_bandwidth() {
        let aware = Network::from_machine(&MachineModel::frontier());
        let staged = aware.clone().with_gpu_aware(false);
        assert!(staged.alpha() > aware.alpha());
        assert!(staged.beta() > aware.beta() * 1.9);
    }

    #[test]
    fn global_beta_is_derated() {
        let n = Network::from_machine(&MachineModel::frontier());
        assert!(n.beta_global() > n.beta());
    }

    #[test]
    fn contention_scales_alpha_and_beta() {
        let calm = Network::from_machine(&MachineModel::frontier());
        let busy = calm.clone().with_contention(2.0, 3.0);
        assert_eq!(busy.alpha(), calm.alpha() * 2.0);
        assert!((busy.beta() - calm.beta() * 3.0).abs() < 1e-24);
        assert!((busy.beta_global() - calm.beta_global() * 3.0).abs() < 1e-24);
        // Default construction is a calm fabric.
        assert_eq!(calm.alpha_contention, 1.0);
        assert_eq!(calm.beta_contention, 1.0);
    }
}
