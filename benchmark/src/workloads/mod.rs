//! The five workloads. Each offers `setup` — fresh state from the seed —
//! and `run` — the measured loop and the output checks — and, for the
//! traced run, probes that time single layers at the workload's operating
//! point.

pub mod api;
pub mod api_gen;
pub mod node;
pub mod trace;

use vfc::simcore::{Micros, SplitMix64};
use vfc::vmm::workload::{BurstyWeb, SteadyDemand, Workload};

/// The three guest behaviours every workload mixes — the ones the
/// repository's cluster scenarios assign to small, medium and large VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Demand {
    /// 5 % baseline, 8 s bursts to 100 % every minute, phase from `rng`.
    BurstyWeb,
    /// A steady 80 % of every vCPU.
    Steady80,
    /// Every vCPU always wants a full thread.
    Saturating,
}

impl Demand {
    pub fn workload(self, rng: &mut SplitMix64) -> Box<dyn Workload> {
        match self {
            Demand::BurstyWeb => Box::new(BurstyWeb::with_shape(
                rng.next_u64(),
                0.05,
                1.0,
                Micros::from_secs(60),
                Micros::from_secs(8),
            )),
            Demand::Steady80 => Box::new(SteadyDemand::new(0.8)),
            Demand::Saturating => Box::new(SteadyDemand::full()),
        }
    }
}
