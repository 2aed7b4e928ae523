//! Machine configuration and presets.

use crate::fault::FaultPlan;
use crate::time::SimDuration;
use crate::topology::{Topology, PCIE3_X16};

/// Static parameters of one simulated GPU.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub sm_total: u32,
    /// Peak floating-point throughput of one SM (FLOP/s).
    pub flops_per_sm: f64,
    /// Fraction of peak a real kernel achieves; folds cuDNN/algorithm
    /// efficiency into the cost model (calibrated so that, e.g., a
    /// ResNet-50 learning task takes ~220 ms, matching §5.2).
    pub efficiency: f64,
    /// Device memory bandwidth (bytes/s).
    pub mem_bandwidth: f64,
    /// Fixed cost to launch one kernel (driver + dispatch).
    pub kernel_latency: SimDuration,
    /// Fixed cost to start one DMA transfer.
    pub copy_latency: SimDuration,
}

impl DeviceConfig {
    /// A GTX Titan X (Pascal): 28 SMs (3,584/128... the paper's card
    /// reports 3,072 cores = 24 SMs at 128 cores/SM), ~10 TFLOPS fp32 peak,
    /// 480 GB/s memory bandwidth.
    pub fn titan_x_pascal() -> Self {
        let sm_total = 24;
        DeviceConfig {
            sm_total,
            flops_per_sm: 10.0e12 / sm_total as f64,
            // DNN kernels on small batches reach a modest fraction of
            // peak. Calibrated so a batch-32 ResNet-50 learning task takes
            // ~220 ms, the figure the paper reports in §5.2.
            efficiency: 0.17,
            mem_bandwidth: 480.0e9,
            kernel_latency: SimDuration::from_micros(5),
            copy_latency: SimDuration::from_micros(10),
        }
    }

    /// Effective FLOP/s of `sms` granted multiprocessors.
    pub fn effective_flops(&self, sms: u32) -> f64 {
        self.flops_per_sm * self.efficiency * f64::from(sms)
    }
}

/// Static parameters of the whole simulated server.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Per-GPU configuration (homogeneous, like the paper's testbed).
    pub device: DeviceConfig,
    /// Number of GPUs.
    pub n_gpus: usize,
    /// Interconnect topology.
    pub topology: Topology,
    /// Per-step latency of a collective (software + link setup).
    pub collective_step_latency: SimDuration,
    /// Whether to record a full execution trace (cheap, but grows with the
    /// number of items; benches on long runs can disable it).
    pub record_trace: bool,
    /// Deterministic fault schedule ([`FaultPlan::none`] = healthy run).
    pub fault_plan: FaultPlan,
}

impl MachineConfig {
    /// The paper's testbed scaled to `n_gpus`: Titan X GPUs on a PCIe 3.0
    /// x16 binary-tree topology (§5.1).
    pub fn titan_x_server(n_gpus: usize) -> Self {
        MachineConfig {
            device: DeviceConfig::titan_x_pascal(),
            n_gpus,
            topology: Topology::binary_tree(n_gpus, PCIE3_X16),
            collective_step_latency: SimDuration::from_micros(20),
            record_trace: true,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Installs a fault schedule (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_preset_is_consistent() {
        let c = MachineConfig::titan_x_server(8);
        assert_eq!(c.n_gpus, 8);
        assert_eq!(c.topology.gpu_count(), 8);
        assert!(c.device.sm_total > 0);
        assert!(c.device.effective_flops(c.device.sm_total) > 1e12);
    }

    #[test]
    fn effective_flops_scales_with_sms() {
        let d = DeviceConfig::titan_x_pascal();
        let one = d.effective_flops(1);
        let all = d.effective_flops(d.sm_total);
        assert!((all / one - f64::from(d.sm_total)).abs() < 1e-9);
    }
}
