//! Quality ablations over the controller's design parameters.
//!
//! §III.B.2 and §IV.A.1 fix the trigger/factor values "experimentally"
//! as "a good tradeoff between stable capping and fast convergence";
//! these sweeps quantify that tradeoff so the choice is reproducible:
//!
//! * **increase factor** — convergence speed vs allocation waste when a
//!   vCPU steps from idle to saturating;
//! * **decrease factor** — cycle-reclaim speed after a load drop vs
//!   capping oscillation under a sawtooth load;
//! * **history length** — spurious trigger rate under a noisy but
//!   stationary load;
//! * **auction window** — burst fairness between a credit-rich and a
//!   credit-poor VM competing for the same market.

use serde::{Deserialize, Serialize};
use vfc_controller::estimate::EstimateCase;
use vfc_controller::{Controller, ControllerConfig};
use vfc_cpusched::dvfs::{Governor, GovernorKind};
use vfc_cpusched::engine::Engine;
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{MHz, Micros, SplitMix64, VcpuAddr, VcpuId, VmId};
use vfc_vmm::workload::TraceWorkload;
use vfc_vmm::{SimHost, VmTemplate};

fn quiet_host(threads: u32, seed: u64) -> SimHost {
    let spec = NodeSpec::custom("abl", 1, threads, 1, MHz(2400));
    let gov = Governor::new(GovernorKind::Performance, spec.min_mhz, spec.max_mhz, seed)
        .with_noise_std(0.0);
    let engine = Engine::with_parts(spec.clone(), Micros(100_000), gov, seed);
    SimHost::new(spec, seed).with_engine(engine)
}

/// Expand a per-second demand staircase into per-tick values.
fn per_tick(per_second: &[f64]) -> Vec<f64> {
    per_second
        .iter()
        .flat_map(|&d| std::iter::repeat_n(d, 10))
        .collect()
}

/// One probe VM (no guarantee pressure — `F_v` = node max so Eq. 5 never
/// clips the estimate) driven by a demand staircase; returns per-period
/// `(used, alloc, case)` for vCPU 0.
fn probe_run(
    cfg: ControllerConfig,
    demand_per_second: &[f64],
    vfreq: MHz,
) -> Vec<(Micros, Micros, EstimateCase)> {
    let mut host = quiet_host(2, 11);
    let vm = host.provision(&VmTemplate::new("probe", 1, vfreq));
    host.attach_workload(
        vm,
        Box::new(TraceWorkload::new(per_tick(demand_per_second))),
    );
    let mut ctl = Controller::new(cfg, host.topology_info());
    let addr = VcpuAddr::new(vm, VcpuId::new(0));
    let mut out = Vec::with_capacity(demand_per_second.len());
    for _ in 0..demand_per_second.len() {
        host.advance_period();
        let report = ctl.iterate(&mut host).expect("sim backend");
        let v = report.vcpu(addr).expect("probe is reported");
        out.push((v.used, v.alloc, v.case));
    }
    out
}

/// Increase-factor ablation result for one factor value.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IncreaseFactorRow {
    /// The increase factor swept.
    pub factor: f64,
    /// Periods from the step until consumption ≥ 95 % of a full period.
    pub convergence_periods: u32,
    /// Mean over-allocation (alloc − used) during convergence, µs.
    pub mean_waste_us: f64,
}

/// Sweep the increase factor: idle 5 s, then a step to full demand.
pub fn sweep_increase_factor(factors: &[f64]) -> Vec<IncreaseFactorRow> {
    let mut demand = vec![0.0; 5];
    demand.extend(vec![1.0; 40]);
    factors
        .iter()
        .map(|&factor| {
            let mut cfg = ControllerConfig::paper_defaults();
            cfg.increase_factor = factor;
            // Probe with a tiny guarantee so the ramp is estimate-driven
            // (the guarantee-first floor would otherwise mask the sweep).
            let track = probe_run(cfg, &demand, MHz(24));
            let step_at = 5usize;
            let mut convergence = demand.len() as u32;
            let mut waste_acc = 0.0;
            let mut waste_n = 0u32;
            for (i, (used, alloc, _)) in track.iter().enumerate().skip(step_at) {
                waste_acc += alloc.saturating_sub(*used).as_u64() as f64;
                waste_n += 1;
                if used.as_u64() >= 950_000 {
                    convergence = (i - step_at) as u32;
                    break;
                }
            }
            IncreaseFactorRow {
                factor,
                convergence_periods: convergence,
                mean_waste_us: if waste_n == 0 {
                    0.0
                } else {
                    waste_acc / waste_n as f64
                },
            }
        })
        .collect()
}

/// Decrease-factor ablation result.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DecreaseFactorRow {
    /// The decrease factor swept.
    pub factor: f64,
    /// Periods after the drop until the capping is within 2× of the new
    /// low consumption (cycles reclaimed for the market).
    pub reclaim_periods: u32,
    /// Relative capping spread in the final sawtooth phase (oscillation).
    pub sawtooth_cap_spread: f64,
}

/// Sweep the decrease factor: high plateau, a drop, then a ±10 % sawtooth.
pub fn sweep_decrease_factor(factors: &[f64]) -> Vec<DecreaseFactorRow> {
    let mut demand = vec![0.9; 10];
    demand.extend(vec![0.1; 40]); // the drop
    for i in 0..30 {
        demand.push(if i % 2 == 0 { 0.55 } else { 0.45 }); // sawtooth
    }
    factors
        .iter()
        .map(|&factor| {
            let mut cfg = ControllerConfig::paper_defaults();
            cfg.decrease_factor = factor;
            let track = probe_run(cfg, &demand, MHz(24));
            let drop_at = 10usize;
            let mut reclaim = 40u32;
            for (i, (_, alloc, _)) in track.iter().enumerate().skip(drop_at).take(40) {
                if alloc.as_u64() <= 200_000 {
                    reclaim = (i - drop_at) as u32;
                    break;
                }
            }
            let tail: Vec<f64> = track[demand.len() - 20..]
                .iter()
                .map(|(_, alloc, _)| alloc.as_u64() as f64)
                .collect();
            let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            DecreaseFactorRow {
                factor,
                reclaim_periods: reclaim,
                sawtooth_cap_spread: if hi > 0.0 { (hi - lo) / hi } else { 0.0 },
            }
        })
        .collect()
}

/// History-length ablation result.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HistoryLenRow {
    /// The history length `n` swept.
    pub history_len: usize,
    /// Non-stable estimator firings per 100 periods of a noisy but
    /// stationary load.
    pub spurious_triggers_per_100: f64,
}

/// Sweep the history length under a stationary load with ±8 % noise.
pub fn sweep_history_len(lens: &[usize]) -> Vec<HistoryLenRow> {
    let mut rng = SplitMix64::new(0xA11);
    let demand: Vec<f64> = (0..120)
        .map(|_| (0.6 + rng.normal(0.0, 0.08)).clamp(0.0, 1.0))
        .collect();
    lens.iter()
        .map(|&history_len| {
            let mut cfg = ControllerConfig::paper_defaults();
            cfg.history_len = history_len;
            let track = probe_run(cfg, &demand, MHz(24));
            // Skip the settling prefix.
            let triggers = track[20..]
                .iter()
                .filter(|(_, _, case)| *case != EstimateCase::Stable)
                .count();
            HistoryLenRow {
                history_len,
                spurious_triggers_per_100: 100.0 * triggers as f64 / (track.len() - 20) as f64,
            }
        })
        .collect()
}

/// Auction-window ablation result.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WindowRow {
    /// The auction window swept, µs.
    pub window_us: u64,
    /// Market cycles won by the modestly-funded VM / by the credit-rich
    /// VM during the first burst periods (1.0 = the window equalized
    /// them; small values = the rich wallet swept the scarce market
    /// first, §III.B.4's failure mode).
    pub modest_to_rich_ratio: f64,
}

/// Sweep the auction window at the stage level: a credit-rich and a
/// modestly-funded vCPU bid for a market that can satisfy only one of
/// them. The window only matters between *funded* buyers with a scarce
/// market — at the system level that state is transient (the
/// guarantee-first ramp serves bases before the auction even starts), so
/// the stage-level measurement is the meaningful one.
pub fn sweep_window(windows_us: &[u64]) -> Vec<WindowRow> {
    use std::collections::HashMap;
    use vfc_controller::auction::{run_auction, Buyer};
    use vfc_controller::credits::Wallet;
    use vfc_controller::monitor::VcpuObservation;
    use vfc_simcore::CpuId;

    windows_us
        .iter()
        .map(|&window_us| {
            // Fund the wallets through Eq. 4 (the only public intake):
            // rich idled against a huge guarantee, modest against a small
            // one.
            let mut wallet = Wallet::new();
            let rich_vm = VmId::new(0);
            let modest_vm = VmId::new(1);
            let guarantee: HashMap<VmId, Micros> =
                [(rich_vm, Micros(10_000_000)), (modest_vm, Micros(150_000))].into();
            let obs = |vm: u32| VcpuObservation {
                addr: VcpuAddr::new(VmId::new(vm), VcpuId::new(0)),
                slot: vm,
                vm_idx: vm,
                used: Micros::ZERO,
                throttled: Micros::ZERO,
                last_cpu: CpuId::new(0),
                freq_est: MHz(0),
            };
            wallet.earn(&[obs(0), obs(1)], &guarantee);

            // Both want 200 k from a 200 k market.
            let mut market = Micros(200_000);
            let mut buyers = vec![
                Buyer::new(VcpuAddr::new(rich_vm, VcpuId::new(0)), Micros(200_000)),
                Buyer::new(VcpuAddr::new(modest_vm, VcpuId::new(0)), Micros(200_000)),
            ];
            let mut alloc = HashMap::new();
            run_auction(
                &mut market,
                &mut buyers,
                &mut wallet,
                Micros(window_us),
                &mut alloc,
            );
            let got = |vm: VmId| {
                alloc
                    .get(&VcpuAddr::new(vm, VcpuId::new(0)))
                    .map(|m| m.as_u64())
                    .unwrap_or(0)
            };
            let rich_won = got(rich_vm);
            let modest_won = got(modest_vm);
            WindowRow {
                window_us,
                modest_to_rich_ratio: if rich_won == 0 {
                    1.0
                } else {
                    modest_won as f64 / rich_won as f64
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_increase_factor_converges_faster_but_wastes_more() {
        let rows = sweep_increase_factor(&[0.25, 1.0, 3.0]);
        assert!(rows[0].convergence_periods > rows[2].convergence_periods);
        assert!(
            rows[2].mean_waste_us > rows[0].mean_waste_us,
            "aggressive ramps over-allocate: {:?}",
            rows
        );
    }

    #[test]
    fn larger_decrease_factor_reclaims_faster() {
        let rows = sweep_decrease_factor(&[0.02, 0.5]);
        assert!(
            rows[1].reclaim_periods < rows[0].reclaim_periods,
            "{rows:?}"
        );
    }

    #[test]
    fn longer_history_filters_noise() {
        let rows = sweep_history_len(&[2, 20]);
        assert!(
            rows[1].spurious_triggers_per_100 <= rows[0].spurious_triggers_per_100,
            "{rows:?}"
        );
    }

    #[test]
    fn smaller_window_is_fairer_to_the_modest_vm() {
        let rows = sweep_window(&[10_000, 1_000_000]);
        assert!(
            rows[0].modest_to_rich_ratio > rows[1].modest_to_rich_ratio,
            "{rows:?}"
        );
        // The small window should get close to parity.
        assert!(rows[0].modest_to_rich_ratio > 0.7, "{rows:?}");
    }
}
