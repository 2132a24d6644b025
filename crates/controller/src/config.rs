//! Controller configuration.

use serde::{Deserialize, Serialize};
use vfc_simcore::Micros;

/// Whether the control part of the loop is active.
///
/// The paper's evaluation compares execution **A** (monitoring runs, no
/// capping is written — the 4 ms monitoring cost stays for a fair
/// comparison) against execution **B** (full control).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlMode {
    /// Scenario A: stages 1–2 run, nothing is written to `cpu.max`.
    MonitorOnly,
    /// Scenario B: all six stages.
    Full,
}

/// Tunable parameters of the loop. [`ControllerConfig::paper_defaults`]
/// reproduces §IV.A.1: increase trigger/factor 95 %/100 %, decrease
/// trigger/factor 50 %/5 %, `p` = 1 s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Controller period `p`.
    pub period: Micros,
    /// Consumption history length `n` for the trend (Eq. 3).
    pub history_len: usize,
    /// Case (a): consumption above this fraction of the current capping
    /// (with a positive trend) triggers an increase.
    pub increase_trigger: f64,
    /// Case (a): the capping grows by this fraction (1.0 = +100 %).
    pub increase_factor: f64,
    /// Case (b): consumption below this fraction of the current capping
    /// (with a negative trend) triggers a decrease.
    pub decrease_trigger: f64,
    /// Case (b): the capping shrinks by this fraction (0.05 = −5 %).
    pub decrease_factor: f64,
    /// Auction window: cycles a vCPU may buy per auction round, bounding
    /// how much one rich VM can take (§III.B.4).
    pub window: Micros,
    /// Control or monitor-only.
    pub mode: ControlMode,
    /// **Extension beyond the paper** (off by default): treat a vCPU
    /// whose `cpu.stat::throttled_usec` grew during the period as
    /// *increasing* regardless of its consumption trend. Consumption
    /// cannot exceed the capping, so a throttled vCPU bursting from a
    /// low cap reads as "stable low" to the paper's estimator and takes
    /// several periods to be noticed; the throttle counter is the
    /// kernel's direct signal that demand was cut short.
    pub throttle_aware: bool,
    /// How many consecutive periods a stale (cached) monitoring sample
    /// may stand in for a failed per-vCPU read before the vCPU is
    /// skipped for the iteration (degradation ladder, step 2). `0`
    /// disables stale reuse: any failed read skips the vCPU immediately.
    pub stale_sample_ttl: u32,
    /// Per-period time budget for one whole iteration, as a fraction of
    /// [`period`](ControllerConfig::period). When the measured iteration
    /// time overruns the budget the controller descends one rung of the
    /// deadline degradation ladder (full pipeline → reuse previous
    /// allocations → monitor-only → uncap-all watchdog) and climbs back
    /// only after [`ladder_recovery_periods`] consecutive in-budget
    /// periods. `0.0` disables deadline enforcement entirely (the
    /// paper's behavior). Must be `< 1.0`: a budget of a full period or
    /// more can never fire and would silently disable the safety net —
    /// [`validate`](ControllerConfig::validate) rejects it.
    ///
    /// [`ladder_recovery_periods`]: ControllerConfig::ladder_recovery_periods
    pub deadline_budget_frac: f64,
    /// Hysteresis of the deadline ladder: consecutive in-budget periods
    /// required before climbing back **one** rung toward the full
    /// pipeline. Must be ≥ 1 when the deadline budget is enabled.
    pub ladder_recovery_periods: u32,
    /// Fail-safe cap lease TTL, in controller periods. When positive,
    /// every allocation this controller enforces is covered by a lease
    /// that the control plane renews through the reconciler; if the
    /// lease expires (control-plane partition, reconciler death) the
    /// controller stops trusting its market state and degrades to
    /// locally-safe behavior: hold each vCPU at its Eq. 2 guaranteed
    /// `F_v` (releasing market surplus), and after
    /// [`cap_lease_grace`](ControllerConfig::cap_lease_grace) further
    /// periods uncap entirely rather than enforce stale allocations
    /// forever. `0` disables leases (standalone operation: the
    /// controller owns its caps indefinitely).
    pub cap_lease_ttl: u64,
    /// Periods spent in the guarantee-only lease state after expiry
    /// before the controller uncaps everything. Renewal at any point
    /// returns the controller to normal operation.
    pub cap_lease_grace: u64,
}

impl ControllerConfig {
    /// The configuration used in the paper's evaluation (§IV.A.1).
    pub fn paper_defaults() -> Self {
        ControllerConfig {
            period: Micros::SEC,
            history_len: 5,
            increase_trigger: 0.95,
            increase_factor: 1.00,
            decrease_trigger: 0.50,
            decrease_factor: 0.05,
            window: Micros(100_000),
            mode: ControlMode::Full,
            throttle_aware: false,
            stale_sample_ttl: 2,
            deadline_budget_frac: 0.0,
            ladder_recovery_periods: 3,
            cap_lease_ttl: 0,
            cap_lease_grace: 10,
        }
    }

    /// Paper defaults plus the throttle-aware estimation extension.
    pub fn throttle_aware() -> Self {
        ControllerConfig {
            throttle_aware: true,
            ..ControllerConfig::paper_defaults()
        }
    }

    /// Paper defaults with control disabled (scenario A).
    pub fn monitor_only() -> Self {
        ControllerConfig {
            mode: ControlMode::MonitorOnly,
            ..ControllerConfig::paper_defaults()
        }
    }

    /// Builder-style mode override.
    pub fn with_mode(mut self, mode: ControlMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sanity-check parameter ranges; called by the controller at
    /// construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.period.is_zero() {
            return Err("period must be positive".into());
        }
        if self.history_len < 2 {
            return Err("history_len must be ≥ 2 for a trend".into());
        }
        if !(0.0..=1.0).contains(&self.increase_trigger) {
            return Err(format!(
                "increase_trigger {} outside [0, 1]",
                self.increase_trigger
            ));
        }
        if !(0.0..=1.0).contains(&self.decrease_trigger) {
            return Err(format!(
                "decrease_trigger {} outside [0, 1]",
                self.decrease_trigger
            ));
        }
        if self.decrease_trigger > self.increase_trigger {
            return Err("decrease_trigger must not exceed increase_trigger".into());
        }
        if self.increase_factor <= 0.0 {
            return Err("increase_factor must be positive".into());
        }
        if !(0.0..1.0).contains(&self.decrease_factor) {
            return Err(format!(
                "decrease_factor {} outside [0, 1)",
                self.decrease_factor
            ));
        }
        if self.window.is_zero() {
            return Err("auction window must be positive".into());
        }
        if !self.deadline_budget_frac.is_finite() || self.deadline_budget_frac < 0.0 {
            return Err(format!(
                "deadline_budget_frac {} must be a non-negative fraction",
                self.deadline_budget_frac
            ));
        }
        if self.deadline_budget_frac >= 1.0 {
            return Err(format!(
                "deadline_budget_frac {} is ≥ 100 % of the period: the deadline \
                 could never fire and the ladder would be silently disabled \
                 (use 0 to disable deliberately)",
                self.deadline_budget_frac
            ));
        }
        if self.deadline_budget_frac > 0.0 && self.ladder_recovery_periods == 0 {
            return Err(
                "ladder_recovery_periods must be ≥ 1 when a deadline budget is set \
                 (zero hysteresis would oscillate rung-per-period)"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iv() {
        let c = ControllerConfig::paper_defaults();
        assert_eq!(c.period, Micros::SEC);
        assert_eq!(c.increase_trigger, 0.95);
        assert_eq!(c.increase_factor, 1.00);
        assert_eq!(c.decrease_trigger, 0.50);
        assert_eq!(c.decrease_factor, 0.05);
        assert_eq!(c.mode, ControlMode::Full);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn monitor_only_flips_mode() {
        let c = ControllerConfig::monitor_only();
        assert_eq!(c.mode, ControlMode::MonitorOnly);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let base = ControllerConfig::paper_defaults();
        let bad = |f: &dyn Fn(&mut ControllerConfig)| {
            let mut c = base.clone();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(&|c| c.period = Micros::ZERO));
        assert!(bad(&|c| c.history_len = 1));
        assert!(bad(&|c| c.increase_trigger = 1.5));
        assert!(bad(&|c| c.decrease_trigger = -0.1));
        assert!(bad(&|c| {
            c.decrease_trigger = 0.9;
            c.increase_trigger = 0.5;
        }));
        assert!(bad(&|c| c.increase_factor = 0.0));
        assert!(bad(&|c| c.decrease_factor = 1.0));
        assert!(bad(&|c| c.window = Micros::ZERO));
    }

    #[test]
    fn validation_rejects_deadline_footguns() {
        let base = ControllerConfig::paper_defaults();
        let bad = |f: &dyn Fn(&mut ControllerConfig)| {
            let mut c = base.clone();
            f(&mut c);
            c.validate().is_err()
        };
        // A budget of ≥ 100 % of the period can never fire.
        assert!(bad(&|c| c.deadline_budget_frac = 1.0));
        assert!(bad(&|c| c.deadline_budget_frac = 2.5));
        assert!(bad(&|c| c.deadline_budget_frac = -0.1));
        assert!(bad(&|c| c.deadline_budget_frac = f64::NAN));
        // Zero hysteresis with an active budget oscillates.
        assert!(bad(&|c| {
            c.deadline_budget_frac = 0.5;
            c.ladder_recovery_periods = 0;
        }));
        // But both knobs off together stay valid (the default).
        let mut ok = base.clone();
        ok.deadline_budget_frac = 0.0;
        ok.ladder_recovery_periods = 0;
        assert!(ok.validate().is_ok());
        // And a sane enabled pair is valid.
        let mut ok = base.clone();
        ok.deadline_budget_frac = 0.25;
        ok.ladder_recovery_periods = 2;
        assert!(ok.validate().is_ok());
    }
}
